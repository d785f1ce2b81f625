package serve

import "compstor/internal/sim"

// Helpers only the tests call; production code does not.

// Watchdog arms a deadline: if admitted requests are still unfinished when
// the virtual clock reaches it, the engine is stopped and the returned
// flag is set. Chaos tests use it to turn a hang into a failure instead of
// a runaway simulation.
func (s *Server) Watchdog(deadline sim.Time) *bool {
	expired := new(bool)
	s.eng.AtLabeled(deadline, "serve.watchdog", func() {
		if s.Unfinished() > 0 {
			*expired = true
			s.eng.Stop()
		}
	})
	return expired
}
