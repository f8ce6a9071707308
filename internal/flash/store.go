package flash

// PageStore is a sparse page-indexed byte store: the written pages of the
// array, with no notion of time. Timed reads (Array.ReadPage,
// Array.ReadVector) move no bytes; every byte a caller
// sees is copied out of here by ReadRangeInto. A page never written reads
// as zeros; the device above the array, which knows the page's logical
// address, may synthesise its contents instead (ssd.Filler), so the
// paper's 30 GB tables never have to exist in memory.
type PageStore struct {
	pageSize int
	pages    map[uint64][]byte
}

// NewPageStore creates an empty store for pages of the given size.
func NewPageStore(pageSize int) *PageStore {
	return &PageStore{pageSize: pageSize, pages: make(map[uint64][]byte)}
}

// ReadRangeInto copies len(dst) bytes of the page starting at byte offset
// col into dst, zeros if the page was never written, and reports whether
// it was. It is the store's one read: it never allocates, and dst never
// aliases a written page, so no caller can rewrite device contents through
// the bytes it was given.
func (s *PageStore) ReadRangeInto(idx uint64, col int, dst []byte) (written bool) {
	p, ok := s.pages[idx]
	if !ok {
		clear(dst)
		return false
	}
	copy(dst, p[col:col+len(dst)])
	return true
}

// Write stores data as the page contents, padding with zeroes to the page
// size.
func (s *PageStore) Write(idx uint64, data []byte) {
	buf := make([]byte, s.pageSize)
	copy(buf, data)
	s.pages[idx] = buf
}

// Drop discards any written contents of the page (after a block erase);
// subsequent reads see an unwritten page.
func (s *PageStore) Drop(idx uint64) { delete(s.pages, idx) }

// Resident returns the number of pages physically held in memory.
func (s *PageStore) Resident() int { return len(s.pages) }
