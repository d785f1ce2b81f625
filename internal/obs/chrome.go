package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"
)

// chromeWriter streams the Chrome trace-event format (a traceEvents array
// in a JSON object), the dialect Perfetto loads directly. Each event is
// appended field by field, in the order and with the number formats
// encoding/json gives the struct it replaces (chrome_test.go keeps that
// struct as the oracle). Timestamps and durations are microseconds of
// virtual time.
type chromeWriter struct {
	w      *bufio.Writer
	n      int
	b      []byte            // the event being appended, reused
	quoted map[string][]byte // each name's JSON string, encoded once
}

// event writes r as one event of phase ph, at ts on track (pid, tid): a
// span ("X") with its id and parent, an instant ("i") or metadata ("M")
// with r's args and enclosing span, or one end of a flow arrow ("s", "f").
func (c *chromeWriter) event(r *record, ph string, ts int64, pid, tid int) {
	b := c.b[:0]
	if c.n++; c.n > 1 {
		b = append(b, ',')
	}
	q, ok := c.quoted[r.name]
	if !ok {
		q, _ = json.Marshal(r.name) // a string always encodes
		c.quoted[r.name] = q
	}
	b = append(append(b, `{"name":`...), q...)
	if ph == "s" || ph == "f" {
		b = append(b, `,"cat":"flow"`...)
	}
	b = appendUsec(append(append(append(b, `,"ph":"`...), ph...), `","ts":`...), ts)
	if ph == "X" {
		b = appendUsec(append(b, `,"dur":`...), int64(r.end)-int64(r.begin))
	}
	b = strconv.AppendInt(append(b, `,"pid":`...), int64(pid), 10)
	b = strconv.AppendInt(append(b, `,"tid":`...), int64(tid), 10)
	switch ph {
	case "X":
		b = strconv.AppendInt(append(b, `,"args":{"id":`...), r.id, 10)
		if r.parent != 0 {
			b = strconv.AppendInt(append(b, `,"parent":`...), r.parent, 10)
		}
		b = append(b, '}')
	case "s", "f":
		b = strconv.AppendInt(append(b, `,"id":`...), r.id, 10)
		if ph == "f" {
			b = append(b, `,"bp":"e"`...)
		}
	default: // "i" and "M" carry r's args and enclosing span
		if ph == "i" {
			b = append(b, `,"s":"t"`...)
		}
		m := map[string]any{}
		for j := 0; j+1 < len(r.args); j += 2 {
			m[r.args[j]] = r.args[j+1]
		}
		if r.parent != 0 {
			m["span"] = r.parent
		}
		if len(m) > 0 {
			args, _ := json.Marshal(m) // strings and an int64 always encode
			b = append(append(b, `,"args":`...), args...)
		}
	}
	c.b = append(b, '}')
	c.w.Write(c.b) // a write error sticks to c.w and comes back from Flush
}

// appendUsec appends ns nanoseconds as microseconds. For a whole number of
// nanoseconds below 10^24 in magnitude, encoding/json's float format is
// this shortest 'f' form.
func appendUsec(b []byte, ns int64) []byte {
	return strconv.AppendFloat(b, float64(ns)/1e3, 'f', -1, 64)
}

// writeChromeTrace streams the tracer's records to w one event at a time,
// so only the records themselves are held in memory. Metadata first, then
// spans and instants in creation order (deterministic under the sim
// kernel), then flow events binding cross-track parent edges so Perfetto
// draws the causal arrows. A nil tracer or an empty run yields a valid
// empty trace. It returns the first write error.
func writeChromeTrace(w io.Writer, t *tracer) error {
	c := &chromeWriter{w: bufio.NewWriter(w), quoted: map[string][]byte{}}
	c.w.WriteString(`{"traceEvents":[`)
	if t != nil {
		for _, pr := range t.procs {
			c.event(&record{name: "process_name", args: []string{"name", pr.name}}, "M", 0, pr.pid, 0)
		}
		for _, th := range t.thList {
			c.event(&record{name: "thread_name", args: []string{"name", th.name}}, "M", 0, th.pid, th.tid)
		}
		// Span ids are dense from 1 to nextID; slot 0 and a span begun and
		// never ended stay nil.
		byID := make([]*record, t.nextID+1)
		for i := range t.recs {
			r := &t.recs[i]
			if r.id == 0 {
				c.event(r, "i", int64(r.begin), r.pid, r.tid)
				continue
			}
			byID[r.id] = r
			c.event(r, "X", int64(r.begin), r.pid, r.tid)
		}
		// Flow arrows for parent edges that cross a track: same-track
		// nesting is already visible as a stack, cross-track (queue/mailbox)
		// edges need explicit s→f binding.
		for i := range t.recs {
			sp := &t.recs[i]
			if sp.id == 0 || sp.parent >= int64(len(byID)) {
				continue
			}
			par := byID[sp.parent]
			if par == nil || (par.pid == sp.pid && par.tid == sp.tid) {
				continue
			}
			// Clamp the source timestamp inside the parent slice so the
			// arrow attaches to it.
			src := min(max(int64(sp.begin), int64(par.begin)), int64(par.end))
			c.event(sp, "s", src, par.pid, par.tid)
			c.event(sp, "f", int64(sp.begin), sp.pid, sp.tid)
		}
	}
	c.w.WriteString(`],"displayTimeUnit":"ms"}` + "\n")
	return c.w.Flush()
}
