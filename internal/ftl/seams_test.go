package ftl

import "compstor/internal/sim"

// Helpers only the tests call; production code does not.

// Sync commits an L2P checkpoint covering every journal record acknowledged
// so far. (Acknowledged writes survive power loss even without it — replay
// recovers them from OOB records — so its value is bounding recovery
// replay, not correctness.) A no-op when the journal is empty.
func (f *FTL) Sync(p *sim.Proc) error {
	f.waitCheckpoint(p)
	if f.records == 0 {
		return nil
	}
	return f.Checkpoint(p)
}

// ReadPage returns the data of logical page lpn in a fresh buffer the
// caller owns; see ReadPageInto.
func (f *FTL) ReadPage(p *sim.Proc, lpn int64) ([]byte, error) {
	out := make([]byte, f.geo.PageSize)
	if err := f.ReadPageInto(p, lpn, out); err != nil {
		return nil, err
	}
	return out, nil
}
