package apps

import (
	"bufio"
	"io"
	"sync"
)

// BlockSize is the size of the buffer a streaming tool reads its input
// into. It is a model constant, not a tuning parameter: the buffer handed to
// Read sizes the device read it issues and the charge that read makes, so
// changing it moves virtual time.
const BlockSize = 64 * 1024

// Block is one stream buffer from the pool every tool shares (zeroing a
// fresh one per task costs as much as scanning a small file). It comes back
// holding whatever its last user read — minfs.File.Read uses all of it as
// scratch — so a tool may only look at the bytes a Read call reported.
type Block [BlockSize]byte

var blocks = sync.Pool{New: func() any { return new(Block) }}

// GetBlock takes a block from the pool; PutBlock returns one no longer used.
func GetBlock() *Block  { return blocks.Get().(*Block) }
func PutBlock(b *Block) { blocks.Put(b) }

// NewLineScanner scans r for lines of up to 4 MiB through blk: it asks r for
// a whole block first, then for what a buffered partial line leaves free.
// With a nil blk the scanner's buffer starts small and grows to the longest
// line: for an r that already reads its source a block at a time (a
// split-scan chunk), so that its reader's block is the only one.
func NewLineScanner(r io.Reader, blk *Block) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	var buf []byte
	if blk != nil {
		buf = blk[:]
	}
	sc.Buffer(buf, 4*1024*1024)
	return sc
}
