package clarens

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// Large result payloads must survive the XML-RPC round trip intact (the
// Fig. 6 sweep ships thousands of rows through this path).
func TestLargePayloadRoundTrip(t *testing.T) {
	s, c := startServer(t, true)
	const rows = 5000
	s.Register("test.big", func(_ context.Context, _ *CallContext, _ []interface{}) (interface{}, error) {
		out := make([]interface{}, rows)
		for i := range out {
			out[i] = []interface{}{int64(i), float64(i) / 3.0, fmt.Sprintf("tag-%d", i)}
		}
		return map[string]interface{}{"rows": out}, nil
	})
	res, err := c.Call("test.big")
	if err != nil {
		t.Fatal(err)
	}
	m := res.(map[string]interface{})
	got := m["rows"].([]interface{})
	if len(got) != rows {
		t.Fatalf("rows = %d", len(got))
	}
	last := got[rows-1].([]interface{})
	if last[0].(int64) != rows-1 || last[2].(string) != fmt.Sprintf("tag-%d", rows-1) {
		t.Fatalf("last row: %#v", last)
	}
}

func TestConcurrentCallers(t *testing.T) {
	s, c0 := startServer(t, true)
	s.Register("test.sq", func(_ context.Context, _ *CallContext, args []interface{}) (interface{}, error) {
		n := args[0].(int64)
		return n * n, nil
	})
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := NewClient(c0.BaseURL)
			for i := 0; i < 25; i++ {
				res, err := client.Call("test.sq", int64(g*100+i))
				if err != nil {
					errs <- err
					return
				}
				want := int64(g*100+i) * int64(g*100+i)
				if res.(int64) != want {
					errs <- fmt.Errorf("got %v want %d", res, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestSessionExpiryAndConcurrentLogins(t *testing.T) {
	s, c0 := startServer(t, false)
	s.AddUser("a", "1")
	s.AddUser("b", "2")
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := NewClient(c0.BaseURL)
			user, pw := "a", "1"
			if g%2 == 1 {
				user, pw = "b", "2"
			}
			if err := c.LoginContext(context.Background(), user, pw); err != nil {
				errs <- err
				return
			}
			if _, err := c.Call("system.echo", "x"); err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// A forged session token is rejected.
	c := NewClient(c0.BaseURL)
	c.session = strings.Repeat("f", 32)
	if _, err := c.Call("system.echo", "x"); err == nil {
		t.Fatal("forged session accepted")
	}
}

func TestNestedStructures(t *testing.T) {
	s, c := startServer(t, true)
	s.Register("test.nest", func(_ context.Context, _ *CallContext, args []interface{}) (interface{}, error) {
		return args[0], nil // echo the nested value
	})
	in := map[string]interface{}{
		"outer": []interface{}{
			map[string]interface{}{"k": int64(1), "v": []interface{}{true, nil, "s"}},
			[]interface{}{[]interface{}{int64(9)}},
		},
	}
	res, err := c.Call("test.nest", in)
	if err != nil {
		t.Fatal(err)
	}
	m := res.(map[string]interface{})
	outer := m["outer"].([]interface{})
	inner := outer[0].(map[string]interface{})
	if inner["k"].(int64) != 1 {
		t.Fatalf("nested: %#v", res)
	}
	leaf := inner["v"].([]interface{})
	if leaf[0].(bool) != true || leaf[1] != nil || leaf[2].(string) != "s" {
		t.Fatalf("leaf: %#v", leaf)
	}
	deep := outer[1].([]interface{})[0].([]interface{})
	if deep[0].(int64) != 9 {
		t.Fatalf("deep: %#v", deep)
	}
}
