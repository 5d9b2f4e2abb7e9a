package catalog

import (
	"strings"
	"testing"
)

func TestAddTableDerivesPages(t *testing.T) {
	c := New("db")
	tab := c.AddTable(Table{Name: "t", Rows: 1000, RowBytes: 100})
	// 4096/100 = 40 rows per page -> 25 pages.
	if tab.Pages != 25 {
		t.Fatalf("Pages = %d, want 25", tab.Pages)
	}
}

func TestAddTableRespectsExplicitPages(t *testing.T) {
	c := New("db")
	tab := c.AddTable(Table{Name: "t", Rows: 1000, RowBytes: 100, Pages: 7})
	if tab.Pages != 7 {
		t.Fatalf("Pages = %d, want explicit 7", tab.Pages)
	}
}

func TestAddTableWideRows(t *testing.T) {
	c := New("db")
	tab := c.AddTable(Table{Name: "wide", Rows: 10, RowBytes: 100000})
	if tab.Pages != 10 {
		t.Fatalf("wide rows: Pages = %d, want one row per page", tab.Pages)
	}
}

func TestDuplicateTablePanics(t *testing.T) {
	c := New("db")
	c.AddTable(Table{Name: "t", Rows: 1, RowBytes: 10})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate table did not panic")
		}
	}()
	c.AddTable(Table{Name: "t", Rows: 1, RowBytes: 10})
}

func TestAddIndexDerivesShape(t *testing.T) {
	c := New("db")
	c.AddTable(Table{Name: "t", Rows: 1_000_000, RowBytes: 100})
	ix := c.AddIndex(Index{Name: "i", Table: "t", Columns: []string{"k"}})
	if ix.LeafPages <= 0 {
		t.Fatal("no leaf pages derived")
	}
	// 170^2 = 28900 < 1e6 <= 170^3, so 2 internal jumps + leaf = 4 levels.
	if ix.Levels != 4 {
		t.Fatalf("Levels = %d, want 4", ix.Levels)
	}
	tab := c.MustTable("t")
	if len(tab.Indexes) != 1 || tab.Indexes[0] != "i" {
		t.Fatalf("table index list = %v", tab.Indexes)
	}
}

func TestAddIndexUnknownTablePanics(t *testing.T) {
	c := New("db")
	defer func() {
		if recover() == nil {
			t.Fatal("index on unknown table did not panic")
		}
	}()
	c.AddIndex(Index{Name: "i", Table: "missing"})
}

func TestMustTablePanicsOnUnknown(t *testing.T) {
	c := New("db")
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("MustTable on unknown did not panic")
		}
		if !strings.Contains(r.(string), "unknown table") {
			t.Fatalf("unexpected panic %v", r)
		}
	}()
	c.MustTable("nope")
}

func TestTPCHShape(t *testing.T) {
	c := TPCH(0.5)
	li := c.MustTable("lineitem")
	if li.Rows != 3_000_000 {
		t.Fatalf("lineitem rows = %d at sf 0.5, want 3M", li.Rows)
	}
	ord := c.MustTable("orders")
	if li.Rows != 4*ord.Rows {
		t.Fatalf("lineitem:orders = %d:%d, want 4:1", li.Rows, ord.Rows)
	}
	// The 500 MB database should occupy roughly 125k pages (~500 MB).
	var total int64
	for _, tb := range c.tables {
		total += tb.Pages
	}
	if total < 100_000 || total > 250_000 {
		t.Fatalf("total pages = %d, not in a ~500MB ballpark", total)
	}
	if _, ok := c.Index("l_orderkey"); !ok {
		t.Fatal("missing lineitem clustering index")
	}
}

func TestTPCHScalesLinearly(t *testing.T) {
	small := TPCH(0.5)
	big := TPCH(1.0)
	s := small.MustTable("lineitem").Rows
	b := big.MustTable("lineitem").Rows
	if b != 2*s {
		t.Fatalf("scaling broken: sf1=%d, sf0.5=%d", b, s)
	}
	// Fixed-size tables do not scale.
	if small.MustTable("nation").Rows != big.MustTable("nation").Rows {
		t.Fatal("nation should not scale")
	}
}

func TestTPCCShape(t *testing.T) {
	c := TPCC(50)
	if c.MustTable("warehouse").Rows != 50 {
		t.Fatal("warehouse rows != warehouses")
	}
	if c.MustTable("stock").Rows != 5_000_000 {
		t.Fatalf("stock rows = %d, want 100k per warehouse", c.MustTable("stock").Rows)
	}
	if c.MustTable("item").Rows != 100_000 {
		t.Fatal("item table must be warehouse-independent")
	}
	for _, ix := range []string{"c_w_id_c_d_id_c_id", "ol_w_id_ol_d_id_ol_o_id", "s_w_id_s_i_id"} {
		if _, ok := c.Index(ix); !ok {
			t.Fatalf("missing index %s", ix)
		}
	}
}

func TestInvalidScalePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TPCH(0) did not panic")
		}
	}()
	TPCH(0)
}

func TestInvalidWarehousesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TPCC(0) did not panic")
		}
	}()
	TPCC(0)
}
