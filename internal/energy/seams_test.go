package energy

// Helpers only the tests call; production code does not.

// AddJoules charges incremental energy directly.
func (c *Component) AddJoules(j float64) {
	if j < 0 {
		panic("energy: negative joules")
	}
	c.activeJ += j
}

// Total returns the summed energy of all components at the current virtual
// time. It adds in Snapshot's name order: float addition does not commute in
// its last bits, so summing in map order would not be reproducible.
func (m *Meter) Total() float64 {
	var j float64
	for _, s := range m.Snapshot() {
		j += s.TotalJ
	}
	return j
}
