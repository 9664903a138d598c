package httpc

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestBothFramings reads a Content-Length response, a chunked one larger
// than any buffer, an error status and a POST echo over one connection.
func TestBothFramings(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), 20_000) // 320 KB: chunked
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Request-ID", r.Header.Get("X-Request-ID"))
		switch r.URL.Path {
		case "/small":
			io.WriteString(w, "hello\n")
		case "/big":
			w.Write(big)
		case "/missing":
			http.Error(w, "nope", http.StatusNotFound)
		case "/echo":
			b, _ := io.ReadAll(r.Body)
			w.Write(b)
		}
	}))
	defer srv.Close()
	c, err := Dial(strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for round := 0; round < 3; round++ {
		if status, body, err := c.Get("/small", "r1"); err != nil || status != 200 || string(body) != "hello\n" {
			t.Fatalf("small: %d %q %v", status, body, err)
		}
		if status, body, err := c.Get("/big", "r2"); err != nil || status != 200 || !bytes.Equal(body, big) {
			t.Fatalf("big: %d, %d bytes, %v", status, len(body), err)
		}
		if status, body, err := c.Get("/missing", "r3"); err != nil || status != 404 || string(body) != "nope\n" {
			t.Fatalf("missing: %d %q %v", status, body, err)
		}
		for _, n := range []int{10, 100_000} { // one write, and header then body
			payload := bytes.Repeat([]byte("x"), n)
			if status, body, err := c.Post("/echo", "r4", payload); err != nil || status != 200 || !bytes.Equal(body, payload) {
				t.Fatalf("echo %d: %d, %d bytes, %v", n, status, len(body), err)
			}
		}
	}
}
