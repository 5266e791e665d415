// Package recindex implements the RecScoreIndex of §IV-C (Fig. 4): a hash
// table from user id to the user's RecTree, that user's pre-computed
// predicted rating scores held in rating order. The INDEXRECOMMEND operator
// (Algorithm 3) traverses it in three phases: user-id filtering on the hash
// table, rating-value filtering on the tree, and item-id filtering on the
// entries read.
//
// A RecTree is written once, whole (Fill), and only ever read in
// descending order from a bound, so it is a sorted slice searched for the
// bound rather than a B+-tree.
package recindex

import (
	"cmp"
	"slices"
	"sort"
	"sync"
)

// Entry is one pre-computed prediction.
type Entry struct {
	Item  int64
	Score float64
}

// Index is the RecScoreIndex. It is safe for concurrent use.
type Index struct {
	mu    sync.RWMutex
	users map[int64][]Entry // user → RecTree: (score desc, item desc)
	gen   uint64            // Clears so far
}

// New returns an empty RecScoreIndex.
func New() *Index {
	return &Index{users: make(map[int64][]Entry)}
}

// Fill replaces user's tree with entries, the scores of every item the
// user has not rated (Algorithm 4, MaterializeUser/All), only while the
// index is still at generation gen, and reports whether it was. A caller
// reads the generation before the model it scores with: a rebuild replaces
// the model and then clears the index, so scores computed from a model
// that has since been replaced are dropped rather than served. Fill takes
// ownership of entries.
func (ix *Index) Fill(gen uint64, user int64, entries []Entry) bool {
	slices.SortFunc(entries, func(a, b Entry) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return cmp.Compare(b.Item, a.Item)
	})
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.gen != gen {
		return false
	}
	ix.users[user] = entries
	return true
}

// RemoveUser drops user's tree.
func (ix *Index) RemoveUser(user int64) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	delete(ix.users, user)
}

// Clear evicts everything and starts the index's next generation.
func (ix *Index) Clear() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.users = make(map[int64][]Entry)
	ix.gen++
}

// Generation counts the Clears so far (see Fill).
func (ix *Index) Generation() uint64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.gen
}

// Complete reports whether user has a tree, which holds a score for every
// item the user had not rated when it was filled. Only then can Algorithm
// 3 answer for the user from the tree alone (its Phase I).
func (ix *Index) Complete(user int64) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	_, ok := ix.users[user]
	return ok
}

// Len returns the total number of materialized entries.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n := 0
	for _, tree := range ix.users {
		n += len(tree)
	}
	return n
}

// Descend visits user's entries in descending score order, ties by
// descending item id (Phases II-III of Algorithm 3), stopping when fn
// returns false. Entries with score above maxScore are skipped when
// maxScore is non-nil, implementing the rating-value predicate pushdown of
// Phase II.
func (ix *Index) Descend(user int64, maxScore *float64, fn func(Entry) bool) {
	ix.mu.RLock()
	tree := ix.users[user]
	ix.mu.RUnlock()
	from := 0
	if maxScore != nil {
		from = sort.Search(len(tree), func(x int) bool { return !(tree[x].Score > *maxScore) })
	}
	for _, e := range tree[from:] {
		if !fn(e) {
			return
		}
	}
}
