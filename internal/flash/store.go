package flash

// Filler generates deterministic contents for pages that were never
// explicitly written. The paper's experiments use 30 GB of embedding tables
// per model; materialising them would be wasteful when timing depends only
// on addresses and counts, so unwritten pages are synthesised on demand.
// The embedding layer installs a filler that derives each float32 from
// (table, row, column), making functional results reproducible while only
// the pages actually touched ever exist in memory.
//
// The filler receives the page index, the starting byte offset within the
// page, and the destination buffer; it must fill exactly len(buf) bytes.
// Range-based filling lets vector-grained reads synthesise 128-256 bytes
// instead of a whole 4 KiB page.
type Filler func(pageIndex uint64, col int, buf []byte)

// PageStore is a sparse page-indexed byte store: the array's contents,
// with no notion of time. Timed reads (Array.ReadPage, Array.ReadVector,
// Lane.ReadVector) move no bytes; every byte a caller sees is copied out
// of here by ReadRangeInto.
type PageStore struct {
	pageSize int
	pages    map[uint64][]byte
	filler   Filler
}

// NewPageStore creates an empty store for pages of the given size.
func NewPageStore(pageSize int) *PageStore {
	return &PageStore{pageSize: pageSize, pages: make(map[uint64][]byte)}
}

// SetFiller installs the on-demand content generator. A nil filler means
// unwritten pages read as zeroes.
func (s *PageStore) SetFiller(f Filler) { s.filler = f }

// ReadRangeInto copies len(dst) bytes of the page starting at byte offset
// col into dst, synthesising them through the filler if the page was never
// written. It is the store's one read: it never allocates, and dst never
// aliases a written page, so no caller can rewrite device contents through
// the bytes it was given.
func (s *PageStore) ReadRangeInto(idx uint64, col int, dst []byte) {
	if p, ok := s.pages[idx]; ok {
		copy(dst, p[col:col+len(dst)])
		return
	}
	if s.filler != nil {
		s.filler(idx, col, dst)
		return
	}
	clear(dst)
}

// Write stores data as the page contents, padding with zeroes to the page
// size. Written pages shadow the filler.
func (s *PageStore) Write(idx uint64, data []byte) {
	buf := make([]byte, s.pageSize)
	copy(buf, data)
	s.pages[idx] = buf
}

// Drop discards any written contents of the page (after a block erase);
// subsequent reads fall back to the filler or zeros.
func (s *PageStore) Drop(idx uint64) { delete(s.pages, idx) }

// Resident returns the number of pages physically held in memory.
func (s *PageStore) Resident() int { return len(s.pages) }
