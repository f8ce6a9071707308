//go:build !(linux || darwin)

package model

// residentWeights fills a heap slice where the standard library offers no
// mprotect: the weights are the same, but neither off-heap nor read-only.
func residentWeights(n int, fill func([]float32)) error {
	fill(make([]float32, n))
	return nil
}
