// Package catalog models the database statistics the optimizer consults:
// table cardinalities, row widths, page counts, and available indexes for a
// TPC-H-like decision-support database and a TPC-C-like transactional
// database.
//
// The paper's testbed used a 500 MB TPC-H database and a 50-warehouse TPC-C
// database, placed in separate databases so the experiments isolate CPU and
// I/O allocation effects; the two Catalog constructors mirror that setup.
package catalog

import "fmt"

// PageSize is the size of a database page in bytes (DB2's default 4 KiB).
const PageSize = 4096

// Index describes a secondary access path on a table.
type Index struct {
	Name    string
	Table   string
	Columns []string
	// Clustering indexes return rows in physical order, so range scans
	// through them touch contiguous pages.
	Clustering bool
	// LeafPages is the number of leaf pages in the index.
	LeafPages int
	// Levels is the B-tree height, including the leaf level.
	Levels int
}

// Table describes one base table's statistics.
type Table struct {
	Name     string
	Rows     int64
	RowBytes int
	// Pages is the number of data pages the table occupies.
	Pages int64
	// Indexes lists secondary access paths, keyed by name in the Catalog.
	Indexes []string
}

// Catalog is a collection of table and index statistics for one database.
type Catalog struct {
	Name    string
	tables  map[string]*Table
	indexes map[string]*Index
}

// New returns an empty catalog with the given database name.
func New(name string) *Catalog {
	return &Catalog{
		Name:    name,
		tables:  make(map[string]*Table),
		indexes: make(map[string]*Index),
	}
}

// AddTable registers a table, deriving Pages from Rows and RowBytes when
// Pages is zero. It panics on duplicate names: catalogs are built once by
// hand, so a duplicate is a programming error.
func (c *Catalog) AddTable(t Table) *Table {
	if _, dup := c.tables[t.Name]; dup {
		panic(fmt.Sprintf("catalog: duplicate table %q", t.Name))
	}
	if t.Rows < 0 || t.RowBytes <= 0 {
		panic(fmt.Sprintf("catalog: invalid stats for table %q", t.Name))
	}
	if t.Pages == 0 {
		rowsPerPage := int64(PageSize / t.RowBytes)
		if rowsPerPage < 1 {
			rowsPerPage = 1
		}
		t.Pages = (t.Rows + rowsPerPage - 1) / rowsPerPage
	}
	tt := t
	c.tables[t.Name] = &tt
	return &tt
}

// AddIndex registers an index on an existing table, deriving LeafPages and
// Levels when zero. It panics if the table is unknown or the name is a
// duplicate.
func (c *Catalog) AddIndex(ix Index) *Index {
	t, ok := c.tables[ix.Table]
	if !ok {
		panic(fmt.Sprintf("catalog: index %q on unknown table %q", ix.Name, ix.Table))
	}
	if _, dup := c.indexes[ix.Name]; dup {
		panic(fmt.Sprintf("catalog: duplicate index %q", ix.Name))
	}
	if ix.LeafPages == 0 {
		// Assume ~16-byte key entries plus overhead: ~170 entries/page.
		ix.LeafPages = int(t.Rows/170) + 1
	}
	if ix.Levels == 0 {
		ix.Levels = 2
		for span := int64(170); span < t.Rows; span *= 170 {
			ix.Levels++
		}
	}
	ii := ix
	c.indexes[ix.Name] = &ii
	t.Indexes = append(t.Indexes, ix.Name)
	return &ii
}

// MustTable returns the statistics for a table, panicking when unknown.
// The optimizer uses it for hand-built plans whose tables must exist.
func (c *Catalog) MustTable(name string) *Table {
	t, ok := c.tables[name]
	if !ok {
		panic(fmt.Sprintf("catalog: unknown table %q in %s", name, c.Name))
	}
	return t
}

// Index returns the statistics for an index. ok is false when unknown.
func (c *Catalog) Index(name string) (*Index, bool) {
	ix, ok := c.indexes[name]
	return ix, ok
}

// TPCH returns a catalog for a TPC-H-like database at the given scale
// factor. The paper used a 500 MB database, i.e. scale factor 0.5.
func TPCH(scale float64) *Catalog {
	if scale <= 0 {
		panic("catalog: TPCH scale must be positive")
	}
	c := New(fmt.Sprintf("tpch-sf%.2g", scale))
	rows := func(base float64) int64 { return int64(base * scale) }

	c.AddTable(Table{Name: "lineitem", Rows: rows(6_000_000), RowBytes: 120})
	c.AddTable(Table{Name: "orders", Rows: rows(1_500_000), RowBytes: 100})
	c.AddTable(Table{Name: "partsupp", Rows: rows(800_000), RowBytes: 140})
	c.AddTable(Table{Name: "part", Rows: rows(200_000), RowBytes: 160})
	c.AddTable(Table{Name: "customer", Rows: rows(150_000), RowBytes: 180})
	c.AddTable(Table{Name: "supplier", Rows: rows(10_000), RowBytes: 160})
	c.AddTable(Table{Name: "nation", Rows: 25, RowBytes: 120})
	c.AddTable(Table{Name: "region", Rows: 5, RowBytes: 120})

	c.AddIndex(Index{Name: "l_orderkey", Table: "lineitem", Columns: []string{"l_orderkey"}, Clustering: true})
	c.AddIndex(Index{Name: "l_partkey", Table: "lineitem", Columns: []string{"l_partkey"}})
	c.AddIndex(Index{Name: "o_orderkey", Table: "orders", Columns: []string{"o_orderkey"}, Clustering: true})
	c.AddIndex(Index{Name: "o_custkey", Table: "orders", Columns: []string{"o_custkey"}})
	c.AddIndex(Index{Name: "ps_partkey", Table: "partsupp", Columns: []string{"ps_partkey"}, Clustering: true})
	c.AddIndex(Index{Name: "p_partkey", Table: "part", Columns: []string{"p_partkey"}, Clustering: true})
	c.AddIndex(Index{Name: "c_custkey", Table: "customer", Columns: []string{"c_custkey"}, Clustering: true})
	c.AddIndex(Index{Name: "s_suppkey", Table: "supplier", Columns: []string{"s_suppkey"}, Clustering: true})
	return c
}

// TPCC returns a catalog for a TPC-C-like database with the given number of
// warehouses. The paper used 50 warehouses.
func TPCC(warehouses int) *Catalog {
	if warehouses <= 0 {
		panic("catalog: TPCC warehouses must be positive")
	}
	w := int64(warehouses)
	c := New(fmt.Sprintf("tpcc-w%d", warehouses))

	c.AddTable(Table{Name: "warehouse", Rows: w, RowBytes: 96})
	c.AddTable(Table{Name: "district", Rows: 10 * w, RowBytes: 112})
	c.AddTable(Table{Name: "customer", Rows: 30_000 * w, RowBytes: 680})
	c.AddTable(Table{Name: "history", Rows: 30_000 * w, RowBytes: 52})
	c.AddTable(Table{Name: "neworder", Rows: 9_000 * w, RowBytes: 12})
	c.AddTable(Table{Name: "order", Rows: 30_000 * w, RowBytes: 32})
	c.AddTable(Table{Name: "orderline", Rows: 300_000 * w, RowBytes: 64})
	c.AddTable(Table{Name: "item", Rows: 100_000, RowBytes: 88})
	c.AddTable(Table{Name: "stock", Rows: 100_000 * w, RowBytes: 320})

	c.AddIndex(Index{Name: "w_id", Table: "warehouse", Columns: []string{"w_id"}, Clustering: true})
	c.AddIndex(Index{Name: "d_w_id_d_id", Table: "district", Columns: []string{"d_w_id", "d_id"}, Clustering: true})
	c.AddIndex(Index{Name: "c_w_id_c_d_id_c_id", Table: "customer", Columns: []string{"c_w_id", "c_d_id", "c_id"}, Clustering: true})
	c.AddIndex(Index{Name: "c_last", Table: "customer", Columns: []string{"c_w_id", "c_d_id", "c_last"}})
	c.AddIndex(Index{Name: "no_w_id_no_d_id_no_o_id", Table: "neworder", Columns: []string{"no_w_id", "no_d_id", "no_o_id"}, Clustering: true})
	c.AddIndex(Index{Name: "o_w_id_o_d_id_o_id", Table: "order", Columns: []string{"o_w_id", "o_d_id", "o_id"}, Clustering: true})
	c.AddIndex(Index{Name: "ol_w_id_ol_d_id_ol_o_id", Table: "orderline", Columns: []string{"ol_w_id", "ol_d_id", "ol_o_id"}, Clustering: true})
	c.AddIndex(Index{Name: "i_id", Table: "item", Columns: []string{"i_id"}, Clustering: true})
	c.AddIndex(Index{Name: "s_w_id_s_i_id", Table: "stock", Columns: []string{"s_w_id", "s_i_id"}, Clustering: true})
	return c
}
