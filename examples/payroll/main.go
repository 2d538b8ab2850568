// Payroll: the database-flavored substrate around the paper's language —
// a journaled repository with integrity constraints guarding every commit
// and a schema (the Section 2.4 typing connection) checked before and
// after updates. A forbidden update is rejected without touching the
// journal; the legal ones accumulate and remain time-travelable.
package main

import (
	"fmt"
	"log"
	"os"

	"verlog"
)

func main() {
	dir, err := os.MkdirTemp("", "verlog-payroll-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	initial, err := verlog.ParseObjectBase(`
ada.isa  -> empl / sal -> 5200 / dept -> engineering.
bert.isa -> empl / sal -> 2800 / dept -> sales.
carl.isa -> empl / sal -> 3100 / dept -> sales.
`)
	if err != nil {
		log.Fatal(err)
	}

	// Schema: class signatures in fact syntax (§2.4 / [SZ87]).
	sch, err := verlog.ParseSchema(`
empl.sal  -> num.
empl.dept -> sym.
empl.bonus -> num.
`)
	if err != nil {
		log.Fatal(err)
	}
	if vs := verlog.CheckSchema(sch, initial); len(vs) != 0 {
		log.Fatalf("initial base violates schema: %v", vs)
	}
	fmt.Println("schema ok: classes", sch.Classes())

	repo, err := verlog.InitRepository(dir, initial)
	if err != nil {
		log.Fatal(err)
	}
	// Integrity constraints in denial form: salaries stay positive and
	// below the budget cap.
	if err := repo.SetConstraints(`
nonneg: E.isa -> empl, E.sal -> S, S < 0.
cap:    E.isa -> empl, E.sal -> S, S > 10000.
`); err != nil {
		log.Fatal(err)
	}
	fmt.Println("constraints installed")

	apply := func(title, src string) {
		p, err := verlog.ParseProgram(src)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := repo.Apply(p); err != nil {
			fmt.Printf("REJECTED %q: %v\n", title, err)
			return
		}
		fmt.Printf("committed %q\n", title)
	}

	apply("annual raise", `
raise: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S * 1.04.`)
	apply("sales bonus", `
bonus: ins[E].bonus -> 250 <- E.isa -> empl / dept -> sales.`)
	// This one violates the cap and must not commit.
	apply("runaway raise", `
oops: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S * 100.`)

	head, err := repo.Head()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== head after the legal updates ==")
	fmt.Print(verlog.FormatObjectBase(head))

	// The rejected program left no trace in the journal.
	fmt.Printf("\njournal: %d committed state(s)\n", repo.Len())
	if err := repo.Verify(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("verify: journal replays to the head")

	// Schema evolution (§2.4): the bonus method became populated.
	before, err := repo.At(0)
	if err != nil {
		log.Fatal(err)
	}
	for _, ev := range sch.EvolutionReport(before, head) {
		fmt.Printf("schema evolution: class %s gained %v, lost %v\n", ev.Class, ev.Gained, ev.Lost)
	}
	if vs := verlog.CheckSchema(sch, head); len(vs) != 0 {
		log.Fatalf("head violates schema: %v", vs)
	}
	fmt.Println("schema still satisfied")
}
