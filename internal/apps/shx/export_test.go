package shx

import (
	"fmt"
	"reflect"
	"strings"
)

// RoundTrip checks, for a line parseScript accepts, that writing the parsed
// structure back out as shell text and parsing that gives the same
// structure: every word survives quoting, every operator keeps its place.
// A line the parser rejects passes.
func RoundTrip(line string) error {
	first, err := parseScript(line)
	if err != nil {
		return nil
	}
	text := render(first)
	second, err := parseScript(text)
	if err != nil {
		return fmt.Errorf("%q parses, its rendering %q does not: %v", line, text, err)
	}
	if !reflect.DeepEqual(first, second) {
		return fmt.Errorf("%q and its rendering %q parse differently", line, text)
	}
	return nil
}

func render(seqs []seqItem) string {
	var sb strings.Builder
	for i, sq := range seqs {
		switch {
		case sq.when == tokAnd:
			sb.WriteString(" && ")
		case sq.when == tokOr:
			sb.WriteString(" || ")
		case i > 0:
			sb.WriteString(" ; ")
		}
		for j, cmd := range sq.pipe {
			if j > 0 {
				sb.WriteString(" | ")
			}
			sb.WriteString(quote(cmd.name))
			for _, a := range cmd.args {
				sb.WriteString(" " + quote(a))
			}
			if cmd.inFile != "" {
				sb.WriteString(" < " + quote(cmd.inFile))
			}
			if cmd.outFile != "" {
				sb.WriteString(" > " + quote(cmd.outFile))
			}
		}
	}
	return sb.String()
}

// quote writes a word in double quotes, where a backslash makes the next
// byte literal.
func quote(word string) string {
	return `"` + strings.NewReplacer(`\`, `\\`, `"`, `\"`).Replace(word) + `"`
}
