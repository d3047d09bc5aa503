package ds

// Stamps is a reusable visited-set over dense int IDs that clears in O(1):
// instead of zeroing a bitset between rounds, each round bumps an epoch and
// an ID counts as visited only if its stamp equals the current epoch. The
// k-level hierarchy sweep runs one round per trussness level over the same
// supernode ID space, which this makes allocation-free after construction.
type Stamps struct {
	mark  []uint32
	epoch uint32
}

// NewStamps returns a visited-set over IDs in [0, n).
func NewStamps(n int) *Stamps {
	return &Stamps{mark: make([]uint32, n)}
}

// NextEpoch starts a new round: every ID becomes unvisited. O(1) except
// once every 2^32 rounds, when the backing array is recleared to make the
// recycled epoch value safe.
func (s *Stamps) NextEpoch() {
	s.epoch++
	if s.epoch == 0 {
		for i := range s.mark {
			s.mark[i] = 0
		}
		s.epoch = 1
	}
}

// Visit marks ID i visited and reports whether this is the first visit of
// the current epoch.
func (s *Stamps) Visit(i int32) bool {
	if s.mark[i] == s.epoch {
		return false
	}
	s.mark[i] = s.epoch
	return true
}

// Len returns the current ID-space size.
func (s *Stamps) Len() int { return len(s.mark) }
