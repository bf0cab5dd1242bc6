package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"time"

	"pagerankvm/internal/experiments"
)

// The client speaks prvm-load's wire protocol: minimal HTTP/1.1 over
// one keep-alive TCP connection per client, JSON bodies, Content-Length
// framing. It is a copy rather than an import because prvm-load is a
// main package.

// Request kinds.
const (
	kindPlace uint8 = iota
	kindRelease
)

// Request outcomes.
const (
	codeOK      uint8 = iota // 200
	codeRefused              // 409 no_capacity: a correct refusal
	codeFailed               // transport error or any other status
)

// request is one generated API call.
type request struct {
	kind  uint8
	vm    int64
	vtype uint8 // index into the generator's type list (places only)
}

// generator produces one connection's seeded request stream. Its next
// request depends only on the seed and on which earlier places were
// accepted, so a single-connection run is a pure function of the seed.
type generator struct {
	rng      *rand.Rand
	types    []string
	weights  map[string]float64
	idBase   int64
	nextID   int64
	resident []int64
	// lifo releases the most recently accepted VM instead of a random
	// one.
	lifo bool
}

// idStride separates the VM id ranges of different connections.
const idStride = 1_000_000_000

// newGenerator seeds connection conn's stream. types must be sorted;
// VM types are drawn with experiments.VMMix weights.
func newGenerator(seed int64, conn int, types []string) *generator {
	return &generator{
		rng:     rand.New(rand.NewSource(seed*7919 + int64(conn))),
		types:   types,
		weights: experiments.VMMix(),
		idBase:  int64(conn+1) * idStride,
	}
}

// next draws the next request: a place with probability pPlace (always
// when nothing is resident), otherwise the release of a resident VM,
// chosen uniformly or last-in-first-out. A release is removed from the
// resident set at once; a place joins it only when accepted.
func (g *generator) next(pPlace float64) request {
	if len(g.resident) == 0 || g.rng.Float64() < pPlace {
		g.nextID++
		name := experiments.SampleVMType(g.weights, g.types, g.rng.Float64())
		vt := 0
		for i, t := range g.types {
			if t == name {
				vt = i
				break
			}
		}
		return request{kind: kindPlace, vm: g.idBase + g.nextID, vtype: uint8(vt)}
	}
	j := len(g.resident) - 1
	if !g.lifo {
		j = g.rng.Intn(len(g.resident))
	}
	vm := g.resident[j]
	g.resident[j] = g.resident[len(g.resident)-1]
	g.resident = g.resident[:len(g.resident)-1]
	return request{kind: kindRelease, vm: vm}
}

// accepted records that a place was answered 200.
func (g *generator) accepted(vm int64) { g.resident = append(g.resident, vm) }

// appendRequest appends r's HTTP/1.1 request to buf.
func appendRequest(buf []byte, host string, types []string, r request) []byte {
	var path string
	body := make([]byte, 0, 64)
	body = append(body, `{"vm":`...)
	body = strconv.AppendInt(body, r.vm, 10)
	if r.kind == kindPlace {
		path = "/v1/place"
		body = append(body, `,"type":"`...)
		body = append(body, types[r.vtype]...)
		body = append(body, '"')
	} else {
		path = "/v1/release"
	}
	body = append(body, '}')
	buf = append(buf, "POST "...)
	buf = append(buf, path...)
	buf = append(buf, " HTTP/1.1\r\nHost: "...)
	buf = append(buf, host...)
	buf = append(buf, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	buf = strconv.AppendInt(buf, int64(len(body)), 10)
	buf = append(buf, "\r\n\r\n"...)
	return append(buf, body...)
}

// client is one keep-alive connection.
type client struct {
	conn  net.Conn
	br    *bufio.Reader
	host  string
	types []string
	buf   []byte
	body  []byte
}

// dial opens a connection to addr with Nagle off.
func dial(addr string, types []string) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) // loopback; a failure only costs latency
	}
	return &client{conn: conn, br: bufio.NewReaderSize(conn, 16<<10), host: addr, types: types}, nil
}

// close closes the connection.
func (c *client) close() { _ = c.conn.Close() } // nothing to flush

// do sends r and parses the answer. For an accepted place it returns
// the hosting PM id; otherwise pm is -1.
func (c *client) do(r request) (code uint8, pm int, err error) {
	c.buf = appendRequest(c.buf[:0], c.host, c.types, r)
	if _, err := c.conn.Write(c.buf); err != nil {
		return codeFailed, -1, fmt.Errorf("write: %w", err)
	}
	status, body, err := c.readResponse()
	if err != nil {
		return codeFailed, -1, fmt.Errorf("read: %w", err)
	}
	switch {
	case status == 200 && r.kind == kindPlace:
		pm, ok := intField(body, "pm")
		if !ok {
			return codeFailed, -1, fmt.Errorf("place response without pm: %q", body)
		}
		return codeOK, int(pm), nil
	case status == 200:
		return codeOK, -1, nil
	case status == 409 && r.kind == kindPlace && bytes.Contains(body, []byte(`"no_capacity"`)):
		return codeRefused, -1, nil
	default:
		return codeFailed, -1, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
}

// get issues a GET and returns the status and body.
func (c *client) get(path string) (int, []byte, error) {
	c.buf = append(c.buf[:0], "GET "...)
	c.buf = append(c.buf, path...)
	c.buf = append(c.buf, " HTTP/1.1\r\nHost: "...)
	c.buf = append(c.buf, c.host...)
	c.buf = append(c.buf, "\r\n\r\n"...)
	if _, err := c.conn.Write(c.buf); err != nil {
		return 0, nil, err
	}
	status, body, err := c.readResponse()
	return status, append([]byte(nil), body...), err
}

// readResponse parses one HTTP/1.1 response with Content-Length
// framing. The returned body aliases the client's buffer until the
// next call.
func (c *client) readResponse() (int, []byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	parts := strings.SplitN(string(line), " ", 3)
	if len(parts) < 2 {
		return 0, nil, fmt.Errorf("malformed status line %q", strings.TrimSpace(string(line)))
	}
	status, err := strconv.Atoi(parts[1])
	if err != nil {
		return 0, nil, fmt.Errorf("malformed status line %q", strings.TrimSpace(string(line)))
	}
	length := -1
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		h := strings.TrimRight(string(line), "\r\n")
		if h == "" {
			break
		}
		k, v, ok := strings.Cut(h, ":")
		if !ok {
			continue
		}
		switch strings.ToLower(strings.TrimSpace(k)) {
		case "content-length":
			if length, err = strconv.Atoi(strings.TrimSpace(v)); err != nil {
				return 0, nil, fmt.Errorf("bad content-length %q", v)
			}
		case "transfer-encoding":
			return 0, nil, fmt.Errorf("unsupported transfer-encoding %q", strings.TrimSpace(v))
		}
	}
	if length < 0 {
		return 0, nil, fmt.Errorf("response without content-length (status %d)", status)
	}
	if cap(c.body) < length {
		c.body = make([]byte, length)
	}
	c.body = c.body[:length]
	if _, err := io.ReadFull(c.br, c.body); err != nil {
		return 0, nil, err
	}
	return status, c.body, nil
}

// intField extracts the integer value of a top-level "key": field from
// a compact JSON object without decoding the whole body.
func intField(body []byte, key string) (int64, bool) {
	pat := []byte(`"` + key + `":`)
	i := bytes.Index(body, pat)
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(pat):]
	j := 0
	if j < len(rest) && rest[j] == '-' {
		j++
	}
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	v, err := strconv.ParseInt(string(rest[:j]), 10, 64)
	return v, err == nil
}
