package flash

import "compstor/internal/sim"

// Helpers only the tests call; production code does not.

// ReadPageOOB reads one page and its spare area into a fresh buffer; see
// ReadPageInto.
func (d *Device) ReadPageOOB(p *sim.Proc, a Addr) ([]byte, OOB, error) {
	out := make([]byte, d.geo.PageSize)
	oob, err := d.ReadPageInto(p, a, out)
	if err != nil {
		return nil, OOB{}, err
	}
	return out, oob, nil
}
