// Package embedding lays recommendation-model embedding tables out on the
// simulated SSD and provides the address arithmetic shared by every lookup
// implementation.
//
// Each table is a file on the extent-based file system (the paper's
// RM_create_table path writes tables "as normal files" through block I/O).
// Vectors are slotted so that no vector crosses a flash page boundary: page
// p of a table holds vectors [p*VPP, (p+1)*VPP) where VPP = PageSize/EVSize.
// For the paper's dimensions (32 and 64 -> 128 B and 256 B) the packing is
// exact; odd dimensions waste the page tail, as a real deployment would.
//
// The store also installs the device's deterministic content filler so that
// any page of any table reads back the correct vector bytes without 30 GB
// of RAM: contents are synthesised from (model seed, table, row, element)
// on demand. The tables are created back to back, each one contiguous run
// of logical pages, so the filler maps a logical page to its (table, row)
// with two divisions.
package embedding

import (
	"fmt"

	"rmssd/internal/hostio"
	"rmssd/internal/model"
	"rmssd/internal/ssd"
)

// Store manages one model's embedding tables on one device.
type Store struct {
	m     *model.Model
	fs    *hostio.FS
	dev   *ssd.Device
	files []*hostio.File
	vpp   int64 // vectors per page
	// Table t occupies the logical pages [firstLPN + t*tablePages,
	// firstLPN + (t+1)*tablePages).
	firstLPN   int64
	tablePages int64
}

// NewStore creates the table files for m on fs and installs the content
// filler on the device.
func NewStore(m *model.Model, fs *hostio.FS) (*Store, error) {
	cfg := m.Cfg
	ps := int64(fs.PageSize())
	evSize := int64(cfg.EVSize())
	if evSize > ps {
		return nil, fmt.Errorf("embedding: vector size %d exceeds page size %d", evSize, ps)
	}
	s := &Store{m: m, fs: fs, dev: fs.Device(), vpp: ps / evSize}
	s.tablePages = (cfg.RowsPerTable + s.vpp - 1) / s.vpp
	for t := 0; t < cfg.Tables; t++ {
		f, err := fs.Create(fmt.Sprintf("%s.emb.%d", cfg.Name, t), s.tablePages*ps)
		if err != nil {
			return nil, fmt.Errorf("embedding: creating table %d: %w", t, err)
		}
		if t == 0 {
			s.firstLPN = f.Extents()[0].Addr / ps
		}
		// The filler's arithmetic needs each table's extents to continue
		// the previous table's run of pages.
		next := (s.firstLPN + int64(t)*s.tablePages) * ps
		for _, e := range f.Extents() {
			if e.Addr != next {
				return nil, fmt.Errorf("embedding: table %d extent at device byte %d, want %d: tables are not one contiguous run", t, e.Addr, next)
			}
			next += e.Len
		}
		s.files = append(s.files, f)
	}
	if s.dev.IsDynamic() {
		// Physical placement moves under the page-mapped FTL, so content
		// cannot be synthesised from addresses: write the tables for real.
		// (Only sensible at reduced experiment scales.)
		for t := 0; t < cfg.Tables; t++ {
			s.MaterializeTable(t)
		}
	} else {
		s.dev.SetFiller(s.fill)
	}
	return s, nil
}

// Model returns the owning model.
func (s *Store) Model() *model.Model { return s.m }

// File returns the table's backing file.
func (s *Store) File(table int) *hostio.File { return s.files[table] }

// VectorsPerPage returns how many vectors share one flash page.
func (s *Store) VectorsPerPage() int64 { return s.vpp }

// VectorFileOffset returns the byte offset of a vector within its table
// file, honouring the slotted layout.
func (s *Store) VectorFileOffset(row int64) int64 {
	ps := int64(s.fs.PageSize())
	evSize := int64(s.m.Cfg.EVSize())
	return (row/s.vpp)*ps + (row%s.vpp)*evSize
}

// VectorAddr returns the device byte address of the vector at (table, row).
func (s *Store) VectorAddr(table int, row int64) int64 {
	if table < 0 || table >= len(s.files) {
		panic(fmt.Sprintf("embedding: table %d of %d", table, len(s.files)))
	}
	if row < 0 || row >= s.m.Cfg.RowsPerTable {
		panic(fmt.Sprintf("embedding: row %d of %d", row, s.m.Cfg.RowsPerTable))
	}
	return s.files[table].AddrOf(s.VectorFileOffset(row))
}

// fill is the device's filler: it writes the len(buf) bytes at column col
// of logical page lpn. Page p of table t is logical page
// firstLPN + t*tablePages + p and holds rows [p*vpp, (p+1)*vpp) in
// consecutive evSize-byte slots. The page tail after the last slot, slots
// past the table's last row and pages outside every table read as zeros.
func (s *Store) fill(lpn int64, col int, buf []byte) {
	p := lpn - s.firstLPN
	if p < 0 || p >= int64(len(s.files))*s.tablePages {
		clear(buf)
		return
	}
	t := p / s.tablePages
	evSize := s.m.Cfg.EVSize()
	slot := int64(col / evSize)
	within := col % evSize
	row := (p-t*s.tablePages)*s.vpp + slot
	for len(buf) > 0 {
		n := min(evSize-within, len(buf))
		if slot < s.vpp && row < s.m.Cfg.RowsPerTable {
			s.m.EVBytesInto(int(t), row, within, buf[:n])
		} else {
			clear(buf[:n])
		}
		buf = buf[n:]
		slot, row, within = slot+1, row+1, 0
	}
}

// MaterializeTable writes the actual bytes of one table through the block
// path; only sensible for test-sized tables. It lets tests verify that the
// filler and the written image agree byte for byte.
func (s *Store) MaterializeTable(table int) {
	cfg := s.m.Cfg
	f := s.files[table]
	ps := int64(s.fs.PageSize())
	pages := f.Size() / ps
	buf := make([]byte, ps)
	for p := int64(0); p < pages; p++ {
		for i := range buf {
			buf[i] = 0
		}
		for slot := int64(0); slot < s.vpp; slot++ {
			row := p*s.vpp + slot
			if row >= cfg.RowsPerTable {
				break
			}
			copy(buf[slot*int64(cfg.EVSize()):], s.m.EVBytes(table, row))
		}
		f.WriteAt(buf, p*ps)
	}
}
