// Evolution: long-term object-base evolution under journal control — the
// complementary use of versioning that Section 1 of the paper mentions.
// Each applied update-program becomes one journaled evolution step; any
// past state can be reconstructed by replaying the journal, and the diffs
// show exactly what each program changed.
package main

import (
	"fmt"
	"log"
	"os"

	"verlog"
)

func main() {
	dir, err := os.MkdirTemp("", "verlog-evolution-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	initial, err := verlog.ParseObjectBase(`
henry.isa -> empl / sal -> 2000 / dept -> sales.
mary.isa  -> empl / sal -> 2600 / dept -> engineering.
`)
	if err != nil {
		log.Fatal(err)
	}

	repo, err := verlog.InitRepository(dir, initial)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("repository initialized in", dir)

	steps := []struct {
		title, src string
	}{
		{"annual raise", `
raise: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S * 1.05.`},
		{"sales reorg: move sales to accounts", `
move: mod[E].dept -> (sales, accounts) <- E.isa -> empl / dept -> sales.`},
		{"bonus for accounts", `
bonus: ins[E].bonus -> 500 <- E.isa -> empl / dept -> accounts.`},
	}

	for _, s := range steps {
		p, err := verlog.ParseProgram(s.src)
		if err != nil {
			log.Fatal(err)
		}
		res, err := repo.Apply(p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("applied %q: %d updates fired\n", s.title, res.Fired)
	}

	fmt.Println("\n== journal ==")
	entries, err := repo.Entries()
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range entries {
		fmt.Printf("  state %d: +%d facts, -%d facts\n", e.Seq, e.Added.Len(), e.Removed.Len())
	}

	fmt.Println("\n== time travel: henry's salary over time ==")
	n, _ := repo.Len()
	for s := 0; s <= n; s++ {
		at, err := repo.At(s)
		if err != nil {
			log.Fatal(err)
		}
		sal, err := verlog.Query(at, `henry.sal -> S.`)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  state %d: %v\n", s, sal)
	}

	head, err := repo.Head()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== head ==")
	fmt.Print(verlog.FormatObjectBase(head))
}
