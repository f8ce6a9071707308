//go:build linux || darwin

package model

import (
	"fmt"
	"syscall"
	"unsafe"
)

// residentWeights maps n float32s of anonymous private memory outside the GC
// heap, hands them to fill, then makes the mapping read-only, so a stray
// write faults instead of changing a served prediction. The mapping is never
// unmapped once sealed: it holds the weights of a model that lives as long
// as the process. (The build tag names the platforms whose syscall package
// has Mprotect; elsewhere resident_other.go fills a heap slice.)
func residentWeights(n int, fill func([]float32)) error {
	mem, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return fmt.Errorf("mapping %d weight bytes: %w", 4*n, err)
	}
	fill(unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(mem))), n))
	if err := syscall.Mprotect(mem, syscall.PROT_READ); err != nil {
		if uerr := syscall.Munmap(mem); uerr != nil {
			err = fmt.Errorf("%w (unmapping: %v)", err, uerr)
		}
		return fmt.Errorf("sealing %d weight bytes read-only: %w", 4*n, err)
	}
	return nil
}
