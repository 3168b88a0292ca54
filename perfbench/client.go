package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// client is a minimal HTTP/1.1 client over one keep-alive TCP connection.
// Requests are serialized once, in set-up, so the timed loop does no
// formatting and almost no allocation of its own: the client layer costs
// a write, a read and a header scan.
type client struct {
	conn net.Conn
	r    *bufio.Reader
	body []byte
}

// replyTimeout bounds one round trip; the serving plane promises an answer
// well within it, so hitting it means a hung request.
const replyTimeout = 60 * time.Second

func dial(addr string) (*client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{conn: c, r: bufio.NewReaderSize(c, 16<<10)}, nil
}

func (c *client) close() { _ = c.conn.Close() }

// request serializes one POST.
func request(route string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/octet-stream\r\nContent-Length: %d\r\n\r\n", route, len(body))
	b.Write(body)
	return b.Bytes()
}

var contentLength = []byte("content-length:")

// do sends one serialized request and reads the reply. The returned body
// is valid until the next call.
func (c *client) do(req []byte) (status int, body []byte, err error) {
	if err := c.conn.SetDeadline(time.Now().Add(replyTimeout)); err != nil {
		return 0, nil, err
	}
	if _, err := c.conn.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	n := -1
	for {
		h, err := c.r.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(h) <= 2 {
			break
		}
		if len(h) > len(contentLength) && bytes.EqualFold(h[:len(contentLength)], contentLength) {
			if n, err = strconv.Atoi(string(bytes.TrimSpace(h[len(contentLength):]))); err != nil {
				return 0, nil, fmt.Errorf("bad header %q", h)
			}
		}
	}
	if n < 0 {
		return 0, nil, fmt.Errorf("reply without Content-Length")
	}
	if cap(c.body) < n {
		c.body = make([]byte, n)
	}
	c.body = c.body[:n]
	if _, err := io.ReadFull(c.r, c.body); err != nil {
		return 0, nil, err
	}
	return status, c.body, nil
}
