// Package rec implements the paper's core contribution: the recommendation
// models RecDB builds and maintains inside the database engine. It provides
//
//   - the five supported algorithms (§III-A): item-item and user-user
//     collaborative filtering with cosine or Pearson similarity, and
//     regularized-gradient-descent matrix factorization (SVD);
//   - in-memory model building (Step I of §II) shared by the in-DBMS
//     operators and the OnTopDB baseline;
//   - recommendation-score prediction (Step II, Equation 2);
//   - the model store, which serves a built model to the RECOMMEND
//     operators (Algorithms 1-2) and to SQL as read-only relations
//     (ItemNeighborhood, UserNeighborhood, UserVector, ItemVector,
//     UserFactor, ItemFactor, ItemScore);
//   - the recommender manager behind CREATE/DROP RECOMMENDER, including
//     the N% staleness-threshold maintenance policy (§III-A).
package rec

import (
	"fmt"
	"strings"
)

// Algorithm identifies a recommendation algorithm.
type Algorithm int

// The supported algorithms. DefaultAlgorithm (ItemCosCF) is used when a
// CREATE RECOMMENDER or RECOMMEND clause omits USING, per §III-A.
const (
	ItemCosCF Algorithm = iota
	ItemPearCF
	UserCosCF
	UserPearCF
	SVD
	// Popularity is the non-personalized class of §II: every user gets the
	// same scores, the damped mean rating of each item. It is an extension
	// beyond the paper's three families, useful as a cold-start fallback.
	Popularity
)

// DefaultAlgorithm is ItemCosCF, the paper's default.
const DefaultAlgorithm = ItemCosCF

// String returns the paper's abbreviation for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case ItemCosCF:
		return "ItemCosCF"
	case ItemPearCF:
		return "ItemPearCF"
	case UserCosCF:
		return "UserCosCF"
	case UserPearCF:
		return "UserPearCF"
	case SVD:
		return "SVD"
	case Popularity:
		return "Popularity"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm resolves an algorithm name (case-insensitive). The empty
// string resolves to DefaultAlgorithm.
func ParseAlgorithm(name string) (Algorithm, error) {
	switch strings.ToLower(name) {
	case "":
		return DefaultAlgorithm, nil
	case "itemcoscf":
		return ItemCosCF, nil
	case "itempearcf":
		return ItemPearCF, nil
	case "usercoscf":
		return UserCosCF, nil
	case "userpearcf":
		return UserPearCF, nil
	case "svd":
		return SVD, nil
	case "popularity":
		return Popularity, nil
	default:
		return 0, fmt.Errorf("rec: unknown recommendation algorithm %q", name)
	}
}

// ItemBased reports whether the algorithm's model is an item neighborhood.
func (a Algorithm) ItemBased() bool { return a == ItemCosCF || a == ItemPearCF }

// UserBased reports whether the algorithm's model is a user neighborhood.
func (a Algorithm) UserBased() bool { return a == UserCosCF || a == UserPearCF }

// Pearson reports whether the algorithm uses Pearson correlation.
func (a Algorithm) Pearson() bool { return a == ItemPearCF || a == UserPearCF }

// Rating is one (user, item, value) preference triple, the row shape of the
// ratings table named in CREATE RECOMMENDER.
type Rating struct {
	User, Item int64
	Value      float64
}
