// Package btree implements an in-memory B+-tree over composite row keys.
// It backs two things: primary-key indexes on heap tables, and the per-user
// RecTrees inside the RecScoreIndex (Fig. 4 of the paper), whose leaves are
// scanned in descending predicted-rating order by the INDEXRECOMMEND
// operator (Algorithm 3).
//
// A tree is grown key by key with Insert, or built in one pass from a
// sorted run with Load (table bulk loads and CREATE INDEX).
//
// Deletion follows PostgreSQL's relaxed strategy: keys are removed from
// leaves, and a node is unlinked from its parent only when it becomes
// completely empty. The tree never rebalances on delete, which keeps the
// structure simple and is adequate for the batch admission/eviction pattern
// of the recommendation cache.
package btree

import (
	"fmt"
	"sort"

	"recdb/internal/types"
)

// CompareRows orders composite keys lexicographically under CompareValues.
func CompareRows(a, b types.Row) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := CompareValues(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

// CompareValues orders two key fields. Values of different kinds that
// types.Compare refuses to order (e.g. TEXT vs BIGINT) fall back to
// ordering by kind, so the comparison is a total order over all values.
// A caller that sorts a run for Load must sort with this order.
func CompareValues(a, b types.Value) int {
	c, err := types.Compare(a, b)
	if err != nil {
		ka, kb := a.Kind(), b.Kind()
		switch {
		case ka < kb:
			return -1
		case ka > kb:
			return 1
		default:
			return 0
		}
	}
	return c
}

type node struct {
	// keys are sorted. For a leaf, vals[i] corresponds to keys[i]. For an
	// internal node, children[i] holds keys < keys[i], children[len(keys)]
	// holds the rest (children has len(keys)+1 entries).
	keys     []types.Row
	vals     []any
	children []*node
	next     *node // leaf chain, ascending
	prev     *node // leaf chain, descending
	leaf     bool
}

// Tree is a B+-tree from composite row keys to arbitrary values. Keys are
// unique; Insert on an existing key replaces its value. Tree is not safe
// for concurrent mutation; the engine serializes writers per index.
type Tree struct {
	root  *node
	order int // max keys per node
	size  int
}

// DefaultOrder is used when New is called with order < 4.
const DefaultOrder = 64

// New creates an empty tree. order is the maximum number of keys per node.
func New(order int) *Tree {
	if order < 4 {
		order = DefaultOrder
	}
	return &Tree{root: &node{leaf: true}, order: order}
}

// Load builds a tree bottom-up from a run that is already in strictly
// ascending key order: key i is slab[i*width:(i+1)*width] and vals[i] its
// value. Leaves are packed full and chained, and each upper level takes its
// separators from its children's first keys, so the build is O(n), compares
// no keys, and allocates per node rather than per key — the nodes' key and
// value arrays are windows of slab and vals, which the tree owns from here
// on. Load does not check the order (the caller has just established it);
// Validate does.
func Load(order, width int, slab []types.Value, vals []any) (*Tree, error) {
	t := New(order)
	n := len(vals)
	if width < 1 || len(slab) != n*width {
		return nil, fmt.Errorf("btree: Load of %d keys of width %d over a slab of %d values", n, width, len(slab))
	}
	if n == 0 {
		return t, nil
	}
	keys := make([]types.Row, n)
	for i := range keys {
		keys[i] = slab[i*width : (i+1)*width : (i+1)*width]
	}
	// Every window is capped at its own length, so a later Insert into a
	// loaded node reallocates that node's array instead of growing into
	// its neighbour's.
	level := make([]*node, 0, (n+t.order-1)/t.order)
	firsts := make([]types.Row, 0, cap(level)) // smallest key under each node of level
	for lo := 0; lo < n; lo += t.order {
		hi := min(lo+t.order, n)
		leaf := &node{leaf: true, keys: keys[lo:hi:hi], vals: vals[lo:hi:hi]}
		if len(level) > 0 {
			leaf.prev = level[len(level)-1]
			leaf.prev.next = leaf
		}
		level = append(level, leaf)
		firsts = append(firsts, keys[lo])
	}
	for len(level) > 1 {
		fan := t.order + 1
		up := make([]*node, 0, (len(level)+fan-1)/fan)
		upFirsts := make([]types.Row, 0, cap(up))
		for lo := 0; lo < len(level); {
			hi := min(lo+fan, len(level))
			if len(level)-hi == 1 {
				hi-- // leave the last parent two children, not a lone one
			}
			up = append(up, &node{keys: firsts[lo+1 : hi : hi], children: level[lo:hi:hi]})
			upFirsts = append(upFirsts, firsts[lo])
			lo = hi
		}
		level, firsts = up, upFirsts
	}
	t.root = level[0]
	t.size = n
	return t, nil
}

// Len returns the number of keys in the tree.
func (t *Tree) Len() int { return t.size }

// searchNode returns the index of the first key >= k within n.
func searchNode(n *node, k types.Row) int {
	return sort.Search(len(n.keys), func(i int) bool {
		return CompareRows(n.keys[i], k) >= 0
	})
}

func (t *Tree) findLeaf(k types.Row) *node {
	n := t.root
	for !n.leaf {
		i := searchNode(n, k)
		if i < len(n.keys) && CompareRows(n.keys[i], k) == 0 {
			i++ // equal separator keys route right
		}
		n = n.children[i]
	}
	return n
}

// Get returns the value stored at key k.
func (t *Tree) Get(k types.Row) (any, bool) {
	n := t.findLeaf(k)
	i := searchNode(n, k)
	if i < len(n.keys) && CompareRows(n.keys[i], k) == 0 {
		return n.vals[i], true
	}
	return nil, false
}

// Insert stores val at key k, replacing any previous value. It returns true
// when a new key was added (false on replacement).
func (t *Tree) Insert(k types.Row, val any) bool {
	key := k.Clone()
	added, split, sepKey, right := t.insert(t.root, key, val)
	if split {
		newRoot := &node{
			keys:     []types.Row{sepKey},
			children: []*node{t.root, right},
		}
		t.root = newRoot
	}
	if added {
		t.size++
	}
	return added
}

func (t *Tree) insert(n *node, k types.Row, val any) (added, split bool, sepKey types.Row, right *node) {
	if n.leaf {
		i := searchNode(n, k)
		if i < len(n.keys) && CompareRows(n.keys[i], k) == 0 {
			n.vals[i] = val
			return false, false, nil, nil
		}
		n.keys = append(n.keys, nil)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = k
		n.vals = append(n.vals, nil)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = val
		if len(n.keys) > t.order {
			sep, r := t.splitLeaf(n)
			return true, true, sep, r
		}
		return true, false, nil, nil
	}
	i := searchNode(n, k)
	if i < len(n.keys) && CompareRows(n.keys[i], k) == 0 {
		i++
	}
	added, childSplit, childSep, childRight := t.insert(n.children[i], k, val)
	if childSplit {
		n.keys = append(n.keys, nil)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = childSep
		n.children = append(n.children, nil)
		copy(n.children[i+2:], n.children[i+1:])
		n.children[i+1] = childRight
		if len(n.keys) > t.order {
			sep, r := t.splitInternal(n)
			return added, true, sep, r
		}
	}
	return added, false, nil, nil
}

func (t *Tree) splitLeaf(n *node) (types.Row, *node) {
	mid := len(n.keys) / 2
	right := &node{
		leaf: true,
		keys: append([]types.Row(nil), n.keys[mid:]...),
		vals: append([]any(nil), n.vals[mid:]...),
	}
	n.keys = n.keys[:mid:mid]
	n.vals = n.vals[:mid:mid]
	right.next = n.next
	right.prev = n
	if n.next != nil {
		n.next.prev = right
	}
	n.next = right
	return right.keys[0].Clone(), right
}

func (t *Tree) splitInternal(n *node) (types.Row, *node) {
	mid := len(n.keys) / 2
	sep := n.keys[mid]
	right := &node{
		keys:     append([]types.Row(nil), n.keys[mid+1:]...),
		children: append([]*node(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return sep, right
}

// Delete removes key k. It returns false when the key was absent.
func (t *Tree) Delete(k types.Row) bool {
	removed := t.remove(t.root, k)
	if removed {
		t.size--
	}
	// Collapse a root that lost all its separators.
	for !t.root.leaf && len(t.root.children) == 1 {
		t.root = t.root.children[0]
	}
	return removed
}

func (t *Tree) remove(n *node, k types.Row) bool {
	if n.leaf {
		i := searchNode(n, k)
		if i >= len(n.keys) || CompareRows(n.keys[i], k) != 0 {
			return false
		}
		n.keys = append(n.keys[:i], n.keys[i+1:]...)
		n.vals = append(n.vals[:i], n.vals[i+1:]...)
		return true
	}
	i := searchNode(n, k)
	if i < len(n.keys) && CompareRows(n.keys[i], k) == 0 {
		i++
	}
	child := n.children[i]
	removed := t.remove(child, k)
	if removed && t.emptyNode(child) {
		t.unlinkChild(n, i)
	}
	return removed
}

func (t *Tree) emptyNode(n *node) bool {
	if n.leaf {
		return len(n.keys) == 0
	}
	return len(n.children) == 0
}

func (t *Tree) unlinkChild(parent *node, i int) {
	child := parent.children[i]
	if child.leaf {
		if child.prev != nil {
			child.prev.next = child.next
		}
		if child.next != nil {
			child.next.prev = child.prev
		}
	}
	parent.children = append(parent.children[:i], parent.children[i+1:]...)
	switch {
	case len(parent.keys) == 0:
		// Parent had a single child; it is now empty and will be unlinked
		// by its own parent (or collapsed if it is the root).
	case i == len(parent.children):
		parent.keys = parent.keys[:len(parent.keys)-1]
	default:
		parent.keys = append(parent.keys[:maxInt(i-1, 0)], parent.keys[maxInt(i-1, 0)+1:]...)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func (t *Tree) firstLeaf() *node {
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	return n
}

func (t *Tree) lastLeaf() *node {
	n := t.root
	for !n.leaf {
		n = n.children[len(n.children)-1]
	}
	return n
}

// Ascend visits keys >= from in ascending order (all keys when from is
// nil), stopping when fn returns false.
func (t *Tree) Ascend(from types.Row, fn func(key types.Row, val any) bool) {
	var n *node
	var i int
	if from == nil {
		n = t.firstLeaf()
	} else {
		n = t.findLeaf(from)
		i = searchNode(n, from)
	}
	for n != nil {
		for ; i < len(n.keys); i++ {
			if !fn(n.keys[i], n.vals[i]) {
				return
			}
		}
		n = n.next
		i = 0
	}
}

// Descend visits keys <= from in descending order (all keys when from is
// nil), stopping when fn returns false. This is the access path of
// INDEXRECOMMEND: highest predicted rating first.
func (t *Tree) Descend(from types.Row, fn func(key types.Row, val any) bool) {
	var n *node
	var i int
	if from == nil {
		n = t.lastLeaf()
		i = len(n.keys) - 1
	} else {
		n = t.findLeaf(from)
		i = searchNode(n, from)
		if i >= len(n.keys) || CompareRows(n.keys[i], from) > 0 {
			i--
		}
	}
	for n != nil {
		for ; i >= 0; i-- {
			if i < len(n.keys) && !fn(n.keys[i], n.vals[i]) {
				return
			}
		}
		n = n.prev
		if n != nil {
			i = len(n.keys) - 1
		}
	}
}

// Range visits keys in [lo, hi] ascending; nil bounds are open.
func (t *Tree) Range(lo, hi types.Row, fn func(key types.Row, val any) bool) {
	t.Ascend(lo, func(k types.Row, v any) bool {
		if hi != nil && CompareRows(k, hi) > 0 {
			return false
		}
		return fn(k, v)
	})
}

// Validate checks structural invariants (sorted keys, key/child arity,
// leaf-chain consistency). Intended for tests.
func (t *Tree) Validate() error {
	count, err := t.validate(t.root, nil, nil)
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("btree: size %d but %d reachable keys", t.size, count)
	}
	return nil
}

func (t *Tree) validate(n *node, lo, hi types.Row) (int, error) {
	for i := 1; i < len(n.keys); i++ {
		if CompareRows(n.keys[i-1], n.keys[i]) >= 0 {
			return 0, fmt.Errorf("btree: keys out of order at %v", n.keys[i])
		}
	}
	for _, k := range n.keys {
		if lo != nil && CompareRows(k, lo) < 0 {
			return 0, fmt.Errorf("btree: key %v below lower bound %v", k, lo)
		}
		if hi != nil && CompareRows(k, hi) >= 0 {
			return 0, fmt.Errorf("btree: key %v above upper bound %v", k, hi)
		}
	}
	if n.leaf {
		if len(n.keys) != len(n.vals) {
			return 0, fmt.Errorf("btree: leaf arity mismatch")
		}
		return len(n.keys), nil
	}
	if len(n.children) != len(n.keys)+1 {
		return 0, fmt.Errorf("btree: internal node with %d keys, %d children", len(n.keys), len(n.children))
	}
	total := 0
	for i, c := range n.children {
		clo, chi := lo, hi
		if i > 0 {
			clo = n.keys[i-1]
		}
		if i < len(n.keys) {
			chi = n.keys[i]
		}
		cnt, err := t.validate(c, clo, chi)
		if err != nil {
			return 0, err
		}
		total += cnt
	}
	return total, nil
}
