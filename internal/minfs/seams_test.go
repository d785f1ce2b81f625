package minfs

import (
	"fmt"

	"compstor/internal/sim"
)

// Helpers only the tests call; production code does not.

// Delete removes a file and trims its pages (at its writer's Close, if open).
func (v *View) Delete(p *sim.Proc, name string) error {
	ino, ok := v.fs.files[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	delete(v.fs.files, name)
	return v.release(p, ino)
}
