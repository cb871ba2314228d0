// Package er implements the entity–relationship substrate of the paper's
// introduction (Fig 1): conceptual schemes with attributes, entities
// (aggregations of attributes) and relationships (aggregations of entities
// and attributes), their k-partite object graphs, and the
// query-interpretation flow — given object names, propose connections
// ranked by the number of auxiliary objects, minimal first.
package er

import (
	"context"
	"fmt"

	"repro/internal/bipartite"
	"repro/internal/graph"
	"repro/internal/intset"
	"repro/internal/steiner"
)

// Kind is the conceptual level of an object.
type Kind int

// Object kinds, lowest level first.
const (
	KindAttribute Kind = iota
	KindEntity
	KindRelationship
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindAttribute:
		return "attribute"
	case KindEntity:
		return "entity"
	case KindRelationship:
		return "relationship"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Object is a named concept defined in terms of lower-level objects:
// entities aggregate attributes; relationships aggregate entities and
// attributes. An entity may additionally declare a supertype (ISA
// generalization, see isa.go).
type Object struct {
	Name       string
	Kind       Kind
	Components []string
	ISA        string
}

// Scheme is an entity–relationship scheme.
type Scheme struct {
	objects []Object
	index   map[string]int
}

// NewScheme validates and builds a scheme: component references must exist
// and respect the level discipline (attributes have no components; entity
// components are attributes; relationship components are entities or
// attributes).
func NewScheme(objects ...Object) (*Scheme, error) {
	s := &Scheme{index: make(map[string]int, len(objects))}
	for _, o := range objects {
		if _, dup := s.index[o.Name]; dup {
			return nil, fmt.Errorf("er: duplicate object %q", o.Name)
		}
		s.index[o.Name] = len(s.objects)
		s.objects = append(s.objects, o)
	}
	if err := s.validateISA(); err != nil {
		return nil, err
	}
	for _, o := range s.objects {
		if o.Kind == KindAttribute && len(o.Components) > 0 {
			return nil, fmt.Errorf("er: attribute %q has components", o.Name)
		}
		for _, c := range o.Components {
			j, ok := s.index[c]
			if !ok {
				return nil, fmt.Errorf("er: object %q references unknown component %q", o.Name, c)
			}
			ck := s.objects[j].Kind
			switch o.Kind {
			case KindEntity:
				if ck != KindAttribute {
					return nil, fmt.Errorf("er: entity %q may aggregate only attributes, got %s %q", o.Name, ck, c)
				}
			case KindRelationship:
				if ck == KindRelationship {
					return nil, fmt.Errorf("er: relationship %q may not aggregate relationship %q", o.Name, c)
				}
			}
		}
	}
	return s, nil
}

// MustScheme is NewScheme panicking on error; for fixtures.
func MustScheme(objects ...Object) *Scheme {
	s, err := NewScheme(objects...)
	if err != nil {
		panic(err)
	}
	return s
}

// Objects returns the objects in declaration order.
func (s *Scheme) Objects() []Object { return s.objects }

// Object returns the object with the given name.
func (s *Scheme) Object(name string) (Object, bool) {
	i, ok := s.index[name]
	if !ok {
		return Object{}, false
	}
	return s.objects[i], true
}

// Graph returns the object graph: one node per object, an edge from each
// object to each of its components (the k-partite graph of Fig 1).
func (s *Scheme) Graph() *graph.Graph {
	g := graph.New()
	for _, o := range s.objects {
		g.AddNode(o.Name)
	}
	for i, o := range s.objects {
		for _, c := range o.Components {
			g.AddEdge(i, s.index[c])
		}
		if o.ISA != "" {
			g.AddEdge(i, s.index[o.ISA])
		}
	}
	return g
}

// StrictlyLayered reports whether every relationship aggregates only
// entities (no direct attributes). Strictly layered schemes have bipartite
// object graphs — entities on one side, attributes and relationships on
// the other — so the whole chordality machinery applies directly, as the
// paper's closing remark in Section 1 observes.
func (s *Scheme) StrictlyLayered() bool {
	for _, o := range s.objects {
		if o.Kind != KindRelationship {
			continue
		}
		for _, c := range o.Components {
			if j := s.index[c]; s.objects[j].Kind == KindAttribute {
				return false
			}
		}
	}
	return true
}

// Bipartite returns the object graph as a bipartite graph (V1 = attributes
// and relationships, V2 = entities) when the scheme is strictly layered.
func (s *Scheme) Bipartite() (*bipartite.Graph, error) {
	if !s.StrictlyLayered() {
		return nil, fmt.Errorf("er: scheme is not strictly layered; object graph is not bipartite by level")
	}
	g := s.Graph()
	side := make([]graph.Side, g.N())
	for i, o := range s.objects {
		if o.Kind == KindEntity {
			side[i] = graph.Side2
		} else {
			side[i] = graph.Side1
		}
	}
	return bipartite.FromGraph(g, side)
}

// Interpretation is a candidate reading of a query: the objects of a
// connection tree over it (every leaf a query object; it may be redundant,
// as Fig 1's works-in reading is), split into the query objects and the
// auxiliary objects the user would additionally need to know.
type Interpretation struct {
	Objects   []string
	Auxiliary []string
}

// Interpretations resolves a query given as object names into connections
// ranked by the number of auxiliary objects (minimal first) — the
// disambiguation flow of the paper's introduction. limit bounds the number
// of alternatives returned, ctx the enumeration itself (it is exponential
// in the auxiliary budget). Objects in different components of the object
// graph have no interpretation.
func (s *Scheme) Interpretations(ctx context.Context, query []string, limit int) ([]Interpretation, error) {
	g := s.Graph()
	terminals := make([]int, len(query))
	for i, name := range query {
		id, ok := g.ID(name)
		if !ok {
			return nil, fmt.Errorf("er: unknown object %q", name)
		}
		terminals[i] = id
	}
	// The auxiliary budget is the whole graph, so across components the
	// enumeration below would try every auxiliary set before finding none.
	if g.ComponentContaining(terminals) == nil {
		return nil, nil
	}
	p := intset.FromSlice(terminals)
	covers, err := steiner.RankedCovers(ctx, g, terminals, g.N(), limit)
	if err != nil {
		return nil, err
	}
	out := make([]Interpretation, len(covers))
	for i, c := range covers {
		out[i] = Interpretation{
			Objects:   g.Labels(c),
			Auxiliary: g.Labels(c.Diff(p)),
		}
	}
	return out, nil
}

// MinimalConnection returns the first-ranked interpretation, i.e. the
// connection with the fewest auxiliary objects (a node-minimum Steiner
// tree over the query).
func (s *Scheme) MinimalConnection(ctx context.Context, query []string) (Interpretation, error) {
	interps, err := s.Interpretations(ctx, query, 1)
	if err != nil {
		return Interpretation{}, err
	}
	if len(interps) == 0 {
		return Interpretation{}, fmt.Errorf("er: objects %v cannot be connected", query)
	}
	return interps[0], nil
}

// Fig1Scheme is the paper's Fig 1 example: EMPLOYEE and DEPARTMENT
// entities, a WORKS_IN relationship carrying a start DATE, and EMPLOYEE
// carrying a birth DATE directly. The query {EMPLOYEE, DATE} then has the
// birthdate reading as its minimal interpretation (no auxiliary object)
// and the works-in reading next (one auxiliary object).
func Fig1Scheme() *Scheme {
	return MustScheme(
		Object{Name: "NAME", Kind: KindAttribute},
		Object{Name: "DATE", Kind: KindAttribute},
		Object{Name: "D#", Kind: KindAttribute},
		Object{Name: "BUDGET", Kind: KindAttribute},
		Object{Name: "EMPLOYEE", Kind: KindEntity, Components: []string{"NAME", "DATE"}},
		Object{Name: "DEPARTMENT", Kind: KindEntity, Components: []string{"D#", "BUDGET"}},
		Object{Name: "WORKS_IN", Kind: KindRelationship, Components: []string{"EMPLOYEE", "DEPARTMENT", "DATE"}},
	)
}
