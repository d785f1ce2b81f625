package awkx

import "testing"

// TestSplittableDenyList pins which programs may run chunked: one program
// per construct the deny-list refuses — each carries state across records,
// pulls extra input, ends the whole run or writes elsewhere — beside pure
// record scans, which may.
func TestSplittableDenyList(t *testing.T) {
	for _, c := range []struct {
		prog string
		want bool
	}{
		// Pure record scans, through every construct the walker admits.
		{`{ print $2 }`, true},
		{`/needle/`, true},
		{`$1 ~ /a/ && NF > 2 { print $1, length($0) }`, true},
		{`{ if ($1 > 0) print $1; else print -$1 }`, true},
		{`{ if (limit) print }`, true}, // a variable nothing assigns is a constant
		{`{ while ($1 > 99) { next }; print }`, true},
		{`{ do print $1; while (k) }`, true},
		{`match($0, /x/) { gsub(/a/, "b", $2); sub(/c/, "d"); print }`, true},
		{`{ $2 = toupper($2); $3++; print (NF ? $1 : "-") }`, true},
		{`!($1 == "x") { print substr($0, 2) }`, true},

		// if and the loops, over a variable.
		{`{ if (seen[$1]) print }`, false},
		{`{ while (i < NF) print $(++i) }`, false},
		{`{ do print $1; while (k--) }`, false},
		{`{ for (i = 1; i <= NF; i++) print $i }`, false},
		{`{ for (k in a) print k }`, false},
		// Expression statements and assignment to anything but a field.
		{`{ n++ }`, false},
		{`{ x = $1; print x }`, false},
		{`{ a[$1] = 1 }`, false},
		{`{ delete a }`, false},
		// Record numbers and per-instance state.
		{`{ print NR, $0 }`, false},
		{`FNR > 1`, false},
		{`{ print rand() }`, false},
		{`{ print split($0, parts) }`, false},
		{`{ print gsub(/a/, "", acc) }`, false},
		{`{ if (NF > 1) match($0, /x/); print RSTART, RLENGTH }`, false},
		// Extra input, the end of the run, output elsewhere.
		{`{ getline line < "other"; print line }`, false},
		{`{ getline $2 < "other"; print }`, false},
		{`$1 == "stop" { exit }`, false},
		{`{ print > "out.txt" }`, false},
		{`{ printf "%s\n", $1 > "out.txt" }`, false},
		// Blocks that run once, and functions.
		{`BEGIN { FS = ":" } { print $1 }`, false},
		{`{ print } END { print "done" }`, false},
		{`function f(s) { return s } { print f($1) }`, false},
	} {
		prog, err := parse(c.prog)
		if err != nil {
			t.Errorf("%s: %v", c.prog, err)
			continue
		}
		if got := splittable(prog); got != c.want {
			t.Errorf("splittable(%s) = %v, want %v", c.prog, got, c.want)
		}
	}
}
