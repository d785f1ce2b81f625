package cpu

// Helpers only the tests call; production code does not.

// FullLoadWatts returns draw with every core busy.
func (pl *Platform) FullLoadWatts() float64 {
	return pl.BaseWatts + float64(pl.Cores)*pl.CoreActiveWatts
}
