package flash

// This file provides linearisation between Addr coordinates and flat block/
// page indices. The layout is channel-major:
//
//	block = ((ch·D + die)·P + plane)·B + blk
//	page  = block·PagesPerBlock + pg
//
// so consecutive block indices within one channel stay on that channel and
// the channel of any block is recoverable by one division.

// BlockIndex returns the flat index of the block containing a.
func (g Geometry) BlockIndex(a Addr) int64 {
	return ((int64(a.Channel)*int64(g.DiesPerChan)+int64(a.Die))*int64(g.PlanesPerDie)+int64(a.Plane))*int64(g.BlocksPerPlan) + int64(a.Block)
}

// PageIndex returns the flat index of page a.
func (g Geometry) PageIndex(a Addr) int64 {
	return g.BlockIndex(a)*int64(g.PagesPerBlock) + int64(a.Page)
}

// AddrOfBlock returns the address (page 0) of the flat block index.
func (g Geometry) AddrOfBlock(idx int64) Addr {
	blk := idx % int64(g.BlocksPerPlan)
	idx /= int64(g.BlocksPerPlan)
	plane := idx % int64(g.PlanesPerDie)
	idx /= int64(g.PlanesPerDie)
	die := idx % int64(g.DiesPerChan)
	ch := idx / int64(g.DiesPerChan)
	return Addr{Channel: int(ch), Die: int(die), Plane: int(plane), Block: int(blk)}
}

// AddrOfPage returns the address of the flat page index.
func (g Geometry) AddrOfPage(idx int64) Addr {
	a := g.AddrOfBlock(idx / int64(g.PagesPerBlock))
	a.Page = int(idx % int64(g.PagesPerBlock))
	return a
}
