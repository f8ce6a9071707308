// Package hostio models the host side of the storage stack for the naive
// SSD baselines: an extent-based file system over the simulated SSD and an
// LRU page cache with a configurable DRAM budget.
//
// The paper's SSD-S and SSD-M baselines store embedding tables as normal
// files, read vectors with lseek+read through the kernel I/O stack, and
// limit available DRAM to 1/4 and 1/2 of the total embedding-table size.
// This package reproduces that data path and its two pathologies
// (Section III-B): read amplification from page-granular access to
// 64-256 byte vectors, and page-cache ineffectiveness under the irregular
// embedding access pattern.
package hostio

import (
	"fmt"

	"rmssd/internal/ssd"
)

// Extent maps a contiguous range of file bytes to a contiguous range of
// device bytes, as a FIEMAP-style (file offset, device address, length)
// triple. All three fields are page-aligned.
type Extent struct {
	FileOff int64 // byte offset within the file
	Addr    int64 // logical device byte address
	Len     int64 // length in bytes
}

// File is an extent-mapped file on the simulated device.
type File struct {
	fs      *FS
	id      int
	name    string
	size    int64
	extents []Extent
}

// FS is a minimal extent-allocating file system. Files are allocated in
// runs of extentBytes so that large tables consist of several extents, as
// they would under a real file system; the RM-SSD host library walks this
// extent list when registering tables with the EV Translator.
type FS struct {
	dev         *ssd.Device
	extentBytes int64
	nextPage    int64
	files       map[string]*File
	nextID      int
}

// NewFS creates a file system on dev, allocating extents of extentBytes
// (rounded up to whole pages).
func NewFS(dev *ssd.Device, extentBytes int64) *FS {
	ps := int64(dev.PageSize())
	if extentBytes < ps {
		extentBytes = ps
	}
	extentBytes = (extentBytes + ps - 1) / ps * ps
	return &FS{dev: dev, extentBytes: extentBytes, files: make(map[string]*File)}
}

// Device returns the underlying SSD.
func (fs *FS) Device() *ssd.Device { return fs.dev }

// PageSize returns the device page size.
func (fs *FS) PageSize() int { return fs.dev.PageSize() }

// Create allocates a file of the given size. Extents are carved
// sequentially from the device; interleaving creations of multiple files
// fragments them, as on a real file system.
func (fs *FS) Create(name string, size int64) (*File, error) {
	if _, exists := fs.files[name]; exists {
		return nil, fmt.Errorf("hostio: file %q already exists", name)
	}
	if size <= 0 {
		return nil, fmt.Errorf("hostio: invalid file size %d", size)
	}
	ps := int64(fs.dev.PageSize())
	pages := (size + ps - 1) / ps
	if fs.nextPage+pages > fs.dev.TotalPages() {
		return nil, fmt.Errorf("hostio: device full: need %d pages, %d free",
			pages, fs.dev.TotalPages()-fs.nextPage)
	}
	f := &File{fs: fs, id: fs.nextID, name: name, size: size}
	fs.nextID++
	var off int64
	remaining := pages
	for remaining > 0 {
		runPages := fs.extentBytes / ps
		if runPages > remaining {
			runPages = remaining
		}
		f.extents = append(f.extents, Extent{
			FileOff: off,
			Addr:    fs.nextPage * ps,
			Len:     runPages * ps,
		})
		fs.nextPage += runPages
		off += runPages * ps
		remaining -= runPages
	}
	fs.files[name] = f
	return f, nil
}

// Open returns a previously created file.
func (fs *FS) Open(name string) (*File, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("hostio: file %q does not exist", name)
	}
	return f, nil
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// ID returns the file's unique identifier.
func (f *File) ID() int { return f.id }

// Size returns the file size in bytes.
func (f *File) Size() int64 { return f.size }

// Extents returns the extent list, the information the host passes to the
// RM-SSD when opening a table (Section IV-B1: "the host side invokes a
// system call to get the file LBA information of each table").
func (f *File) Extents() []Extent { return f.extents }

// AddrOf translates a file byte offset to a device byte address.
func (f *File) AddrOf(off int64) int64 {
	if off < 0 || off >= f.size {
		panic(fmt.Sprintf("hostio: offset %d outside file %q of size %d", off, f.name, f.size))
	}
	for _, e := range f.extents {
		if off >= e.FileOff && off < e.FileOff+e.Len {
			return e.Addr + (off - e.FileOff)
		}
	}
	panic(fmt.Sprintf("hostio: offset %d has no extent in %q", off, f.name))
}

// PageOf returns the device logical page number holding the file offset.
func (f *File) PageOf(off int64) int64 {
	return f.AddrOf(off) / int64(f.fs.dev.PageSize())
}

// WriteAt stores data at the file offset with no timing side effects; it is
// used to preload tables. Writes must be page-aligned ranges or fit within
// single pages; table layout writes whole pages.
func (f *File) WriteAt(data []byte, off int64) {
	ps := f.fs.dev.PageSize()
	f.walkPages(off, len(data), func(lpn int64, col, size int) {
		if col == 0 && size == ps {
			f.fs.dev.WritePageUntimed(lpn, data[:size])
		} else {
			page := f.fs.dev.PeekPage(lpn)
			copy(page[col:], data[:size])
			f.fs.dev.WritePageUntimed(lpn, page)
		}
		data = data[size:]
	})
}

// walkPages splits the n bytes at file offset off at device page
// boundaries and calls visit, in file order, with each piece's logical page
// number, byte offset within that page and length. Extents are page-aligned,
// so a piece never straddles two extents.
func (f *File) walkPages(off int64, n int, visit func(lpn int64, col, size int)) {
	ps := int64(f.fs.dev.PageSize())
	for end := off + int64(n); off < end; {
		addr := f.AddrOf(off)
		col := addr % ps
		chunk := min(ps-col, end-off)
		visit(addr/ps, int(col), int(chunk))
		off += chunk
	}
}
