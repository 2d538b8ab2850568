package objectbase

import (
	"fmt"
	"sort"
	"strings"
)

// MethodStat summarizes one method's population in a base.
type MethodStat struct {
	Method string
	// Facts counts method applications (across versions and arguments).
	Facts int
	// Versions counts distinct versions carrying the method.
	Versions int
}

// Stats summarizes an object base, for the stats CLI command and for
// operators sizing workloads.
type Stats struct {
	Facts    int
	Objects  int
	Versions int
	// MaxDepth is the deepest version path in the base.
	MaxDepth int
	// Methods is sorted by fact count, descending, then name.
	Methods []MethodStat
}

// CollectStats scans the base once, all layers merged.
func CollectStats(b *Base) Stats {
	s := Stats{Facts: b.Size()}
	perMethod := map[string]*MethodStat{}
	for v, st := range b.eachState {
		s.Versions++
		if v.IsObject() {
			s.Objects++
		}
		if v.Path.Len() > s.MaxDepth {
			s.MaxDepth = v.Path.Len()
		}
		seen := map[string]bool{}
		for k := range st.All() {
			ms, ok := perMethod[k.Method]
			if !ok {
				ms = &MethodStat{Method: k.Method}
				perMethod[k.Method] = ms
			}
			ms.Facts++
			if !seen[k.Method] {
				seen[k.Method] = true
				ms.Versions++
			}
		}
	}
	for _, ms := range perMethod {
		s.Methods = append(s.Methods, *ms)
	}
	sort.Slice(s.Methods, func(i, j int) bool {
		if s.Methods[i].Facts != s.Methods[j].Facts {
			return s.Methods[i].Facts > s.Methods[j].Facts
		}
		return s.Methods[i].Method < s.Methods[j].Method
	})
	return s
}

// String renders the statistics for humans.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d facts, %d objects, %d versions (max depth %d)\n",
		s.Facts, s.Objects, s.Versions, s.MaxDepth)
	for _, m := range s.Methods {
		fmt.Fprintf(&b, "  %-20s %6d facts on %d version(s)\n", m.Method, m.Facts, m.Versions)
	}
	return b.String()
}
