package btree

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"recdb/internal/types"
)

// loadRun builds the (slab, vals) run of two-field keys (2i, i) for
// i in [0, n): even first fields leave gaps for later inserts.
func loadRun(n int) ([]types.Value, []any) {
	slab := make([]types.Value, 0, 2*n)
	vals := make([]any, n)
	for i := 0; i < n; i++ {
		slab = append(slab, types.NewInt(int64(2*i)), types.NewInt(int64(i)))
		vals[i] = i
	}
	return slab, vals
}

func runKey(i int) types.Row { return types.Row{types.NewInt(int64(2 * i)), types.NewInt(int64(i))} }

type visit struct {
	key string
	val any
}

func collect(walk func(fn func(types.Row, any) bool)) []visit {
	var out []visit
	walk(func(k types.Row, v any) bool {
		out = append(out, visit{k.String(), v})
		return true
	})
	return out
}

// sameReads checks every read path of got against want.
func sameReads(t *testing.T, got, want *Tree, n int) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), want.Len())
	}
	both := func(name string, walk func(tr *Tree) func(fn func(types.Row, any) bool)) {
		t.Helper()
		if g, w := collect(walk(got)), collect(walk(want)); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: loaded tree yields %d entries %v, grown tree %d entries %v", name, len(g), g, len(w), w)
		}
	}
	both("Ascend(nil)", func(tr *Tree) func(func(types.Row, any) bool) {
		return func(fn func(types.Row, any) bool) { tr.Ascend(nil, fn) }
	})
	both("Descend(nil)", func(tr *Tree) func(func(types.Row, any) bool) {
		return func(fn func(types.Row, any) bool) { tr.Descend(nil, fn) }
	})
	// Probe present keys, the gaps between them, and both ends (every key
	// of a small tree, a sample of a large one).
	for i := -1; i <= n; i += max(1, n/40) {
		for _, k := range []types.Row{runKey(i), {types.NewInt(int64(2*i + 1))}} {
			gv, gok := got.Get(k)
			wv, wok := want.Get(k)
			if gok != wok || gv != wv {
				t.Fatalf("Get(%v) = %v, %v; grown tree says %v, %v", k, gv, gok, wv, wok)
			}
			both(fmt.Sprintf("Ascend(%v)", k), func(tr *Tree) func(func(types.Row, any) bool) {
				return func(fn func(types.Row, any) bool) { tr.Ascend(k, fn) }
			})
			both(fmt.Sprintf("Descend(%v)", k), func(tr *Tree) func(func(types.Row, any) bool) {
				return func(fn func(types.Row, any) bool) { tr.Descend(k, fn) }
			})
			hi := types.Row{types.NewInt(int64(2*i + 9))}
			both(fmt.Sprintf("Range(%v, %v)", k, hi), func(tr *Tree) func(func(types.Row, any) bool) {
				return func(fn func(types.Row, any) bool) { tr.Range(k, hi, fn) }
			})
		}
	}
}

func TestLoadMatchesInsert(t *testing.T) {
	const order = 4
	rng := rand.New(rand.NewSource(17))
	sizes := []int{0, 1, order - 1, order, order + 1, order * order, order*order + 1,
		(order+1)*order + 1, // one leaf more than a full root: the lone-child guard
		rng.Intn(500) + 100, rng.Intn(500) + 100}
	for _, n := range sizes {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			slab, vals := loadRun(n)
			loaded, err := Load(order, 2, slab, vals)
			if err != nil {
				t.Fatal(err)
			}
			if err := loaded.Validate(); err != nil {
				t.Fatal(err)
			}
			grown := New(order)
			for i := 0; i < n; i++ {
				grown.Insert(runKey(i), i)
			}
			sameReads(t, loaded, grown, n)
		})
	}
}

func TestLoadRejectsRaggedSlab(t *testing.T) {
	slab, vals := loadRun(3)
	if _, err := Load(4, 2, slab[:5], vals); err == nil {
		t.Fatal("Load accepted a slab that is not width*len(vals) long")
	}
	if _, err := Load(4, 0, nil, nil); err == nil {
		t.Fatal("Load accepted width 0")
	}
}

// A loaded tree has every leaf full and its node arrays share two backing
// slabs, so the first insert into any leaf splits it and must not write
// into its neighbour's window. Drive random inserts and deletes against a
// map model.
func TestLoadedTreeMutates(t *testing.T) {
	const order, n = 4, 4*4*4 + 3
	slab, vals := loadRun(n)
	tr, err := Load(order, 2, slab, vals)
	if err != nil {
		t.Fatal(err)
	}
	model := map[string]any{}
	for i := 0; i < n; i++ {
		model[runKey(i).String()] = i
	}
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 4000; step++ {
		// Odd first fields are new keys, even ones hit the loaded run.
		k := types.Row{types.NewInt(int64(rng.Intn(2*n + 2))), types.NewInt(int64(rng.Intn(2)))}
		_, present := model[k.String()]
		if rng.Intn(2) == 0 {
			if tr.Insert(k, step) == present {
				t.Fatalf("step %d: Insert(%v) added=%v with key present=%v", step, k, !present, present)
			}
			model[k.String()] = step
		} else {
			if tr.Delete(k) != present {
				t.Fatalf("step %d: Delete(%v) removed=%v with key present=%v", step, k, !present, present)
			}
			delete(model, k.String())
		}
		if step%97 == 0 {
			if err := tr.Validate(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	got := collect(func(fn func(types.Row, any) bool) { tr.Ascend(nil, fn) })
	if len(got) != len(model) || tr.Len() != len(model) {
		t.Fatalf("tree holds %d keys (Len %d), model %d", len(got), tr.Len(), len(model))
	}
	for _, v := range got {
		if want, ok := model[v.key]; !ok || want != v.val {
			t.Fatalf("key %s = %v, model says %v (present %v)", v.key, v.val, want, ok)
		}
	}
}
