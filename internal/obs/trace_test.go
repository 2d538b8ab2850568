package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSpanIsSafe(t *testing.T) {
	var s *Span
	var tr *Trace
	c := s.Stage("x").Span()
	if c != nil {
		t.Fatal("nil span produced a child")
	}
	c.End()
	c.SetAttr("k", 1)
	c.SetInt("n", 2)
	if c.AddChild("y", time.Now(), time.Millisecond) != nil {
		t.Error("nil span AddChild returned non-nil")
	}
	tr.SetMeta("k", "v")
	tr.Finish()
	if tr.SpanCount() != 0 {
		t.Error("nil trace has spans")
	}
	var b strings.Builder
	tr.WriteTree(&b)
	if b.Len() != 0 {
		t.Error("nil trace rendered output")
	}
	if err := tr.WriteChrome(&b); err == nil {
		t.Error("nil trace WriteChrome did not error")
	}
}

// TestStage: a stage's span holds the duration its End returns, in
// microseconds, and a stage without a trace is timed all the same and
// allocates nothing.
func TestStage(t *testing.T) {
	tr := NewTrace("apply")
	st := tr.Root.Stage("parse")
	time.Sleep(2 * time.Millisecond)
	d := st.End()
	if d < 2*time.Millisecond || st.Span() != tr.Root.Children[0] || st.Span().DurUS != d.Microseconds() {
		t.Errorf("stage took %v, its span %+v", d, st.Span())
	}
	var untraced *Span
	var sum time.Duration
	if allocs := testing.AllocsPerRun(100, func() { sum += untraced.Stage("parse").End() }); allocs != 0 || sum <= 0 {
		t.Errorf("an untraced stage allocates %v times and took %v in all", allocs, sum)
	}
}

func TestSpanTree(t *testing.T) {
	tr := NewTrace("apply")
	if len(tr.ID) != 32 {
		t.Fatalf("trace id %q, want 32 hex chars", tr.ID)
	}
	root := tr.Root
	parse := root.Stage("parse")
	parse.Span().SetInt("rules", 4)
	parse.End()
	stratum := root.Stage("stratum")
	st := stratum.Span()
	it := st.AddChild("iteration", time.Now(), 0)
	it.SetAttr("fresh_updates", 3)
	it.End()
	stratum.End()
	st.AddChild("rule r1", tr.Start, 2*time.Millisecond).SetInt("fired", 3)
	tr.SetMeta("request_id", "req1")
	tr.Finish()

	if tr.SpanCount() != 5 {
		t.Errorf("span count = %d, want 5", tr.SpanCount())
	}
	if tr.DurUS != root.DurUS {
		t.Errorf("trace dur %d != root dur %d", tr.DurUS, root.DurUS)
	}
	if len(root.Children) != 2 || root.Children[0].Name != "parse" {
		t.Fatalf("children = %+v", root.Children)
	}
	rule := st.Children[1]
	if rule.Name != "rule r1" || rule.DurUS != 2000 {
		t.Errorf("retro child = %+v", rule)
	}
	var b strings.Builder
	tr.WriteTree(&b)
	out := b.String()
	for _, want := range []string{"apply", "├─ parse", "└─ stratum", "rule r1", "fired=3", "fresh_updates=3"} {
		if !strings.Contains(out, want) {
			t.Errorf("tree missing %q:\n%s", want, out)
		}
	}
}

func TestWriteChrome(t *testing.T) {
	tr := NewTrace("apply")
	p := tr.Root.Stage("parse")
	p.Span().SetInt("rules", 2)
	p.End()
	tr.SetMeta("request_id", "reqX")
	tr.Finish()

	var b strings.Builder
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   *int64         `json:"ts"`
			Dur  int64          `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		OtherData       map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("chrome export is not JSON: %v\n%s", err, b.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if doc.OtherData["trace_id"] != tr.ID || doc.OtherData["request_id"] != "reqX" {
		t.Errorf("otherData = %v", doc.OtherData)
	}
	var complete, meta int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
			if ev.Ts == nil || ev.Pid != 1 || ev.Tid != 1 {
				t.Errorf("bad complete event %+v", ev)
			}
			if ev.Name == "parse" && ev.Args["rules"] != float64(2) {
				t.Errorf("parse args = %v", ev.Args)
			}
		case "M":
			meta++
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if complete != 2 || meta != 2 {
		t.Errorf("events: %d complete, %d metadata", complete, meta)
	}
}

func TestTraceRing(t *testing.T) {
	r := NewTraceRing(2)
	var ids []string
	for i := 0; i < 3; i++ {
		tr := NewTrace("apply")
		tr.Finish()
		r.Add(tr)
		ids = append(ids, tr.ID)
	}
	got := r.Traces()
	if len(got) != 2 || got[0].ID != ids[2] || got[1].ID != ids[1] {
		t.Errorf("ring = %v, want newest first [%s %s]", got, ids[2], ids[1])
	}
	if r.Total() != 3 {
		t.Errorf("total = %d", r.Total())
	}
	if r.Get(ids[1]) == nil || r.Get(ids[0]) != nil {
		t.Error("Get: retained/evicted mismatch")
	}
	// Nil-safety.
	var nilRing *TraceRing
	nilRing.Add(NewTrace("x"))
	if nilRing.Traces() != nil || nilRing.Total() != 0 {
		t.Error("nil ring not empty")
	}
}

func TestTraceRingConcurrent(t *testing.T) {
	r := NewTraceRing(4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr := NewTrace("apply")
				tr.Finish()
				r.Add(tr)
				if i%50 == 0 {
					r.Traces()
				}
			}
		}()
	}
	wg.Wait()
	if r.Total() != 8*200 {
		t.Errorf("total = %d", r.Total())
	}
}

func TestTraceparent(t *testing.T) {
	id, span := NewTraceID(), NewSpanID()
	h := FormatTraceparent(id, span)
	gotID, gotSpan, ok := ParseTraceparent(h)
	if !ok || gotID != id || gotSpan != span {
		t.Fatalf("round trip %q -> %q %q %v", h, gotID, gotSpan, ok)
	}
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	if _, _, ok := ParseTraceparent(" " + valid + " "); !ok {
		t.Error("valid header with whitespace rejected")
	}
	for _, bad := range []string{
		"",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331",    // missing flags
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // forbidden version
		"00-00000000000000000000000000000000-b7ad6b7169203331-01", // zero trace id
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", // zero parent id
		"00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01", // uppercase
		"00-0af7651916cd43dd8448eb211c80319-b7ad6b7169203331-01",  // short trace id
		"not a header",
	} {
		if _, _, ok := ParseTraceparent(bad); ok {
			t.Errorf("accepted malformed traceparent %q", bad)
		}
	}
}
