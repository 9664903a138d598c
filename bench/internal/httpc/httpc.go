// Package httpc is the load generator's HTTP/1.1 client: one keep-alive TCP
// connection, requests written as pre-built bytes, responses read up to the
// last body byte. net/http's client costs about as much CPU per request as
// the server under test spends answering it; on a box where generator and
// server share the cores that would halve what the benchmark can see.
package httpc

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// Timeout bounds one request; a request that exceeds it counts as failed.
const Timeout = 30 * time.Second

// Conn is one keep-alive connection. Not safe for concurrent use.
type Conn struct {
	c    net.Conn
	br   *bufio.Reader
	req  []byte
	body []byte
}

// Dial connects to addr (host:port).
func Dial(addr string) (*Conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &Conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

// Close closes the connection.
func (c *Conn) Close() error { return c.c.Close() }

// Get sends GET path with the given X-Request-ID and returns the status and
// the body, which is valid until the next call.
func (c *Conn) Get(path, reqID string) (int, []byte, error) {
	return c.do("GET", path, reqID, nil)
}

// Post sends POST path with a JSON (or NDJSON) body.
func (c *Conn) Post(path, reqID string, body []byte) (int, []byte, error) {
	return c.do("POST", path, reqID, body)
}

func (c *Conn) do(method, path, reqID string, body []byte) (int, []byte, error) {
	r := c.req[:0]
	r = append(r, method...)
	r = append(r, ' ')
	r = append(r, path...)
	r = append(r, " HTTP/1.1\r\nHost: bench\r\nX-Request-ID: "...)
	r = append(r, reqID...)
	if body != nil {
		r = append(r, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		r = strconv.AppendInt(r, int64(len(body)), 10)
	}
	r = append(r, "\r\n\r\n"...)
	c.req = r
	if err := c.c.SetDeadline(time.Now().Add(Timeout)); err != nil {
		return 0, nil, err
	}
	// One write for small requests keeps header and body in one segment.
	if len(body) > 0 && len(body) <= 4096 {
		r = append(r, body...)
		c.req = r
		body = nil
	}
	if _, err := c.c.Write(r); err != nil {
		return 0, nil, err
	}
	if len(body) > 0 {
		if _, err := c.c.Write(body); err != nil {
			return 0, nil, err
		}
	}
	return c.readResponse()
}

var (
	hdrLength  = []byte("content-length:")
	hdrChunked = []byte("transfer-encoding: chunked")
)

func (c *Conn) readResponse() (int, []byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("httpc: bad status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("httpc: bad status line %q", line)
	}
	length, chunked := -1, false
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		lower := bytes.ToLower(bytes.TrimSpace(line))
		switch {
		case bytes.HasPrefix(lower, hdrLength):
			if length, err = strconv.Atoi(string(bytes.TrimSpace(lower[len(hdrLength):]))); err != nil {
				return 0, nil, fmt.Errorf("httpc: bad content-length %q", line)
			}
		case bytes.Equal(lower, hdrChunked):
			chunked = true
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			line, err = c.br.ReadSlice('\n')
			if err != nil {
				return 0, nil, err
			}
			n, err := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 32)
			if err != nil {
				return 0, nil, fmt.Errorf("httpc: bad chunk size %q", line)
			}
			if err := c.readBody(int(n) + 2); err != nil { // chunk + CRLF
				return 0, nil, err
			}
			c.body = c.body[:len(c.body)-2]
			if n == 0 {
				return status, c.body, nil
			}
		}
	case length >= 0:
		if err := c.readBody(length); err != nil {
			return 0, nil, err
		}
		return status, c.body, nil
	default:
		return 0, nil, errors.New("httpc: response without content-length or chunked encoding")
	}
}

// readBody appends the next n bytes of the stream to c.body.
func (c *Conn) readBody(n int) error {
	at := len(c.body)
	if cap(c.body) < at+n {
		grown := make([]byte, at, 2*(at+n))
		copy(grown, c.body)
		c.body = grown
	}
	c.body = c.body[:at+n]
	_, err := io.ReadFull(c.br, c.body[at:])
	return err
}
