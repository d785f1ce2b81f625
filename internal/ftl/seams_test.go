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
