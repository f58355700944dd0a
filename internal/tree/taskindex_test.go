package tree

import (
	"math/rand"
	"testing"
)

// linearAt is the reference lookup: walk the Task children, subtracting
// each run's length.
func linearAt(sec *Node, i int) *Node {
	for _, c := range sec.Children {
		if c.Kind != Task {
			continue
		}
		if i < c.Reps() {
			return c
		}
		i -= c.Reps()
	}
	return nil
}

func TestTaskIndexBoundaries(t *testing.T) {
	a := NewTask("a", NewU(1))
	a.Repeat = 3
	b := NewTask("b", NewU(2))
	c := NewTask("c", NewU(3))
	c.Repeat = 2
	// Non-Task children (leading, between runs, trailing) add no tasks.
	sec := NewSec("s", NewU(9), a, NewU(9), NewU(9), b, c, NewU(9))
	ix := NewTaskIndex(sec)
	if ix.Len() != 6 || ix.Len() != sec.Tasks() {
		t.Fatalf("Len = %d, want 6 (Tasks %d)", ix.Len(), sec.Tasks())
	}
	want := []*Node{a, a, a, b, c, c}
	for i, w := range want {
		if got := ix.At(i); got != w {
			t.Errorf("At(%d) = %q, want %q", i, got.Name, w.Name)
		}
	}
	if NewTaskIndex(NewSec("empty")).Len() != 0 {
		t.Fatal("empty section has tasks")
	}
}

func TestTaskIndexMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		sec := NewSec("s")
		for k := rng.Intn(12); k > 0; k-- {
			if rng.Intn(4) == 0 {
				sec.Children = append(sec.Children, NewU(1))
				continue
			}
			task := NewTask("t", NewU(1))
			task.Repeat = rng.Intn(5) // 0 and 1 both mean one task
			sec.Children = append(sec.Children, task)
		}
		ix := NewTaskIndex(sec)
		if ix.Len() != sec.Tasks() {
			t.Fatalf("trial %d: Len = %d, Tasks = %d", trial, ix.Len(), sec.Tasks())
		}
		for i := 0; i < ix.Len(); i++ {
			if got, want := ix.At(i), linearAt(sec, i); got != want {
				t.Fatalf("trial %d: At(%d) differs from the linear scan", trial, i)
			}
		}
	}
}
