package obs

import (
	"encoding/json"
	"io"
)

// chromeEvent is one entry of the Chrome trace-event format ("JSON Array
// Format" with a traceEvents wrapper), the dialect Perfetto loads directly.
// Timestamps and durations are microseconds of virtual time.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	ID   *int64         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func usec(ns int64) float64 { return float64(ns) / 1e3 }

// writeChromeTrace serialises the tracer's records. Metadata first, then
// spans and instants in creation order (deterministic under the sim
// kernel), then flow events binding cross-track parent edges so Perfetto
// draws the causal arrows. A nil tracer or an empty run yields a valid
// empty trace.
func writeChromeTrace(w io.Writer, t *Tracer) error {
	out := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	if t != nil {
		for _, pr := range t.procs {
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "process_name", Ph: "M", Pid: pr.pid,
				Args: map[string]any{"name": pr.name},
			})
		}
		for _, th := range t.thList {
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: th.pid, Tid: th.tid,
				Args: map[string]any{"name": th.name},
			})
		}
		byID := make(map[int64]*spanRec, len(t.spans))
		for i := range t.spans {
			byID[t.spans[i].id] = &t.spans[i]
		}
		for _, ref := range t.order {
			if ref.instant {
				in := t.instants[ref.idx]
				args := map[string]any{}
				for i := 0; i+1 < len(in.args); i += 2 {
					args[in.args[i]] = in.args[i+1]
				}
				if in.span != 0 {
					args["span"] = in.span
				}
				if len(args) == 0 {
					args = nil
				}
				out.TraceEvents = append(out.TraceEvents, chromeEvent{
					Name: in.name, Ph: "i", Ts: usec(int64(in.at)),
					Pid: in.pid, Tid: in.tid, S: "t", Args: args,
				})
				continue
			}
			sp := t.spans[ref.idx]
			dur := usec(int64(sp.end) - int64(sp.begin))
			args := map[string]any{"id": sp.id}
			if sp.parent != 0 {
				args["parent"] = sp.parent
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: sp.name, Ph: "X", Ts: usec(int64(sp.begin)), Dur: &dur,
				Pid: sp.pid, Tid: sp.tid, Args: args,
			})
		}
		// Flow arrows for parent edges that cross a track: same-track
		// nesting is already visible as a stack, cross-track (queue/mailbox)
		// edges need explicit s→f binding.
		for _, ref := range t.order {
			if ref.instant {
				continue
			}
			sp := t.spans[ref.idx]
			par, ok := byID[sp.parent]
			if sp.parent == 0 || !ok || (par.pid == sp.pid && par.tid == sp.tid) {
				continue
			}
			id := sp.id
			// Clamp the source timestamp inside the parent slice so the
			// arrow attaches to it.
			srcTs := int64(sp.begin)
			if srcTs < int64(par.begin) {
				srcTs = int64(par.begin)
			}
			if srcTs > int64(par.end) {
				srcTs = int64(par.end)
			}
			out.TraceEvents = append(out.TraceEvents,
				chromeEvent{Name: sp.name, Cat: "flow", Ph: "s", Ts: usec(srcTs), Pid: par.pid, Tid: par.tid, ID: &id},
				chromeEvent{Name: sp.name, Cat: "flow", Ph: "f", BP: "e", Ts: usec(int64(sp.begin)), Pid: sp.pid, Tid: sp.tid, ID: &id},
			)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
