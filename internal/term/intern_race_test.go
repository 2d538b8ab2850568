package term_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"verlog/internal/parser"
	"verlog/internal/term"
)

// TestInterningFromManyGoroutines: tenants load their bases at the same
// time, so the same names are interned from several goroutines at once.
// Eight of them parse one text; every one must come out with the same facts,
// equal as values to those of the others. Run under -race.
func TestInterningFromManyGoroutines(t *testing.T) {
	var text strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&text, "emp%d.isa -> empl / boss -> emp%d / sal -> %d / note@%d,\"q %d\" -> \"n%d\".\n", i, i/10, 1000+i, i%7, i%5, i%3)
	}
	const workers = 8
	parsed := make([][]term.Fact, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			facts, err := parser.Facts(strings.Clone(text.String()), "base.vlg")
			if err != nil {
				t.Error(err)
				return
			}
			parsed[w] = facts
		}()
	}
	wg.Wait()
	if len(parsed[0]) != 200*4 {
		t.Fatalf("parsed %d facts, want %d", len(parsed[0]), 200*4)
	}
	for w := 1; w < workers; w++ {
		if len(parsed[w]) != len(parsed[0]) {
			t.Fatalf("goroutine %d parsed %d facts, goroutine 0 %d", w, len(parsed[w]), len(parsed[0]))
		}
		for i, f := range parsed[w] {
			if f != parsed[0][i] {
				t.Fatalf("goroutine %d: fact %d is %v, goroutine 0 has %v", w, i, f, parsed[0][i])
			}
		}
	}
}
