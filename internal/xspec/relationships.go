package xspec

import (
	"fmt"
	"sort"
	"strings"
)

// The paper's lower-level XSpec "contains information about the schema of
// the database, including the tables, columns and relationships within the
// database" (§4.4). Engines in this repo (like MySQL 4.x MyISAM, the
// paper's Tier-2 deployment) do not declare foreign keys, so relationships
// are inferred the way Unity's extraction tools did: a non-key column
// whose name equals another table's single-column primary key is taken as
// a foreign-key reference.

// InferRelationships populates spec.Relationships from column/key naming.
// Existing entries are preserved; duplicates are not added. It returns the
// number of relationships added.
func InferRelationships(spec *LowerSpec) int {
	// Map PK column name -> owning tables (only single-column PKs).
	pkOwner := map[string][]string{}
	for _, t := range spec.Tables {
		var pkCols []string
		for _, c := range t.Columns {
			if c.Key == "PRI" {
				pkCols = append(pkCols, c.Name)
			}
		}
		if len(pkCols) == 1 {
			key := strings.ToLower(pkCols[0])
			pkOwner[key] = append(pkOwner[key], t.Name)
		}
	}
	existing := map[string]bool{}
	for _, r := range spec.Relationships {
		existing[strings.ToLower(r.From)+"->"+strings.ToLower(r.To)] = true
	}
	added := 0
	for _, t := range spec.Tables {
		for _, c := range t.Columns {
			if c.Key == "PRI" {
				continue // a PK is not a reference to itself
			}
			owners := pkOwner[strings.ToLower(c.Name)]
			for _, owner := range owners {
				if owner == t.Name {
					continue
				}
				from := fmt.Sprintf("%s.%s", t.Name, c.Name)
				to := fmt.Sprintf("%s.%s", owner, c.Name)
				key := strings.ToLower(from) + "->" + strings.ToLower(to)
				if existing[key] {
					continue
				}
				existing[key] = true
				spec.Relationships = append(spec.Relationships, Relationship{From: from, To: to})
				added++
			}
		}
	}
	sort.Slice(spec.Relationships, func(i, j int) bool {
		if spec.Relationships[i].From != spec.Relationships[j].From {
			return spec.Relationships[i].From < spec.Relationships[j].From
		}
		return spec.Relationships[i].To < spec.Relationships[j].To
	})
	return added
}
