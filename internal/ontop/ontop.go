// Package ontop implements the paper's baseline, OnTopDB (§I, §VI): the
// recommendation functionality built in the application layer on top of
// the SQL engine instead of inside it. Per query, the client
//
//  1. extracts the ratings from the database with plain SQL,
//     (at recommender-creation time, mirroring the specialized library
//     the paper describes, e.g. LensKit),
//  2. generates the full recommendation — predicted ratings for every
//     (user, item) pair — in application memory,
//  3. loads the produced recommendations back into the database as a
//     scores table, and
//  4. runs the application's filter/join/top-k SQL over that table.
//
// Steps 2-3 run on every query regardless of how selective the query is,
// which is exactly the overhead the in-DBMS operators avoid.
package ontop

import (
	"fmt"
	"strings"
	"sync"

	"recdb/internal/engine"
	"recdb/internal/rec"
	"recdb/internal/types"
)

// ScoresTable is the name of the transient table the client loads
// generated recommendations into. Queries passed to Query must read from
// it; its schema is (uid INT, iid INT, ratingval FLOAT).
const ScoresTable = "_ontop_scores"

// Client is an OnTopDB application: a recommender library living outside
// the database kernel.
type Client struct {
	eng *engine.Engine

	mu     sync.Mutex
	models map[string]*appRecommender
}

type appRecommender struct {
	name             string
	table            string
	uCol, iCol, rCol string
	algo             rec.Algorithm
	model            *rec.ModelStore
}

// New creates an OnTopDB client over the engine.
func New(eng *engine.Engine) *Client {
	return &Client{eng: eng, models: make(map[string]*appRecommender)}
}

// CreateRecommender extracts the ratings table through SQL and builds the
// model in application memory (the library side of the OnTopDB split).
func (c *Client) CreateRecommender(name, table, userCol, itemCol, ratingCol, algoName string, opts rec.BuildOptions) error {
	algo, err := rec.ParseAlgorithm(algoName)
	if err != nil {
		return err
	}
	// Step 1: extract the data from the database.
	res, err := c.eng.Query(fmt.Sprintf("SELECT %s, %s, %s FROM %s", userCol, itemCol, ratingCol, table))
	if err != nil {
		return err
	}
	ratings := make([]rec.Rating, 0, len(res.Rows))
	for _, row := range res.Rows {
		u, uok := row[0].AsInt()
		i, iok := row[1].AsInt()
		v, vok := row[2].AsFloat()
		if !uok || !iok || !vok {
			continue
		}
		ratings = append(ratings, rec.Rating{User: u, Item: i, Value: v})
	}
	model, err := rec.Build(ratings, algo, opts)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, exists := c.models[key]; exists {
		return fmt.Errorf("ontop: recommender %q already exists", name)
	}
	c.models[key] = &appRecommender{
		name: name, table: table,
		uCol: userCol, iCol: itemCol, rCol: ratingCol,
		algo: algo, model: model,
	}
	return nil
}

// DropRecommender discards an application-side model.
func (c *Client) DropRecommender(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, exists := c.models[key]; !exists {
		return fmt.Errorf("ontop: recommender %q does not exist", name)
	}
	delete(c.models, key)
	return nil
}

func (c *Client) get(name string) (*appRecommender, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.models[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("ontop: recommender %q does not exist", name)
	}
	return r, nil
}

// Query runs one OnTopDB recommendation query: generate (for every user,
// as the paper's baseline does) → load → query. selectSQL must read from
// ScoresTable.
func (c *Client) Query(recommender, selectSQL string) (*engine.QueryResult, error) {
	r, err := c.get(recommender)
	if err != nil {
		return nil, err
	}

	// Step 2: generate recommendations in application memory, one user at
	// a time, for every item the user has not rated.
	users := r.model.UserIDs()
	items := r.model.ItemIDs()
	scores := make([]rec.Rating, 0, len(users)*len(items)/2)
	sc := r.model.Scorer(len(items))
	for _, u := range users {
		sc.ForUser(u)
		for _, i := range items {
			s, rated := sc.Candidate(i)
			if rated {
				continue
			}
			scores = append(scores, rec.Rating{User: u, Item: i, Value: s})
		}
	}

	// Step 3: load the produced recommendations back into the database.
	if c.eng.Catalog().Has(ScoresTable) {
		if err := c.eng.Catalog().DropTable(ScoresTable); err != nil {
			return nil, err
		}
	}
	tab, err := c.eng.Catalog().CreateTable(ScoresTable, types.NewSchema(
		types.Column{Name: "uid", Kind: types.KindInt},
		types.Column{Name: "iid", Kind: types.KindInt},
		types.Column{Name: "ratingval", Kind: types.KindFloat},
	), -1)
	if err != nil {
		return nil, err
	}
	for _, s := range scores {
		if _, err := tab.Insert(types.Row{
			types.NewInt(s.User), types.NewInt(s.Item), types.NewFloat(s.Value),
		}); err != nil {
			return nil, err
		}
	}

	// Step 4: run the application's SQL over the loaded scores.
	defer func() { _ = c.eng.Catalog().DropTable(ScoresTable) }()
	return c.eng.Query(selectSQL)
}
