//go:build !race

package appset

const raceEnabled = false
