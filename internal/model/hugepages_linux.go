package model

import "syscall"

// adviseHugePages asks Linux to back a fresh weight mapping with
// transparent huge pages where the system allows them (THP "madvise" or
// "always"). The fill then takes one fault per 2 MiB instead of one per
// 4 KiB, and on a virtual machine those faults are most of a cold build.
// The advice is only a hint: a kernel that declines it keeps 4 KiB pages
// and the same bytes, so its error changes nothing.
func adviseHugePages(mem []byte) {
	//lint:allow errcheck the advice is optional; declining it leaves ordinary pages
	_ = syscall.Madvise(mem, syscall.MADV_HUGEPAGE)
}
