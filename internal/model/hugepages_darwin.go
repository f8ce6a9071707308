package model

// adviseHugePages does nothing on Darwin, which has no transparent huge
// pages to ask for.
func adviseHugePages([]byte) {}
