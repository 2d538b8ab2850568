package parser

import (
	"strings"

	"verlog/internal/objectbase"
	"verlog/internal/term"
)

// FormatProgram renders a program in canonical concrete syntax, one rule
// per line, including rule labels. The output parses back to a program
// equal to the input.
func FormatProgram(p *term.Program) string {
	var b strings.Builder
	for _, r := range p.Rules {
		if r.Name != "" {
			b.WriteString(r.Name)
			b.WriteString(": ")
		}
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatFacts renders an object base in canonical concrete syntax, one fact
// per line, sorted. Facts of the reserved exists method are omitted unless
// withExists is set: they are derivable (every object o carries
// o.exists -> o) and ObjectBase re-seeds them on load.
func FormatFacts(b *objectbase.Base, withExists bool) string {
	var out strings.Builder
	for _, f := range b.Facts() {
		if !withExists && f.IsExists() {
			continue
		}
		out.WriteString(f.String())
		out.WriteString(".\n")
	}
	return out.String()
}
