package serve

import "compstor/internal/sim"

// Helpers only the tests call; production code does not.

// runWatched runs the engine to completion unless admitted requests are
// still unfinished when the virtual clock reaches deadline: then it leaves
// the rest queued and reports expired. Chaos tests use it to turn a hang
// into a failure instead of a runaway simulation.
func (s *Server) runWatched(deadline sim.Time) (expired bool) {
	s.eng.RunUntil(deadline)
	if s.Unfinished() > 0 {
		return true
	}
	s.eng.Run()
	return false
}
