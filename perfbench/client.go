package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"runtime"
	"syscall"
	"unsafe"
)

// offHeap hands out anonymous memory mappings for the load generator's
// large buffers (preformatted requests, latency samples, recorded bodies),
// so the Go heap the benchmark reports belongs to the system under test.
type offHeap struct{ maps [][]byte }

func (o *offHeap) bytes(n int) ([]byte, error) {
	if n <= 0 {
		n = 1
	}
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mmap %d bytes: %w", n, err)
	}
	o.maps = append(o.maps, b)
	return b[:0], nil
}

func (o *offHeap) int64s(n int) ([]int64, error) {
	b, err := o.bytes(n * 8)
	if err != nil {
		return nil, err
	}
	return unsafeSlice[int64](b, n), nil
}

func (o *offHeap) free() {
	for _, b := range o.maps {
		syscall.Munmap(b)
	}
	o.maps = nil
}

// conn is one keep-alive client connection over raw TCP: requests are
// preformatted bytes and responses are read into one reused buffer, so a
// request costs the client no allocation once the buffer has grown to the
// largest body.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	body []byte
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10), bw: bufio.NewWriterSize(c, 64<<10),
		body: make([]byte, 0, 64<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

var (
	hdrContentLen = []byte("content-length:")
	hdrTransfer   = []byte("transfer-encoding:")
)

// do sends one request and returns the status code and the body, which
// stays valid until the next call.
func (c *conn) do(req []byte) (int, []byte, error) {
	if _, err := c.bw.Write(req); err != nil {
		return 0, nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return 0, nil, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status := atoi(line[9:12])
	contentLen, chunked := -1, false
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		if len(line) > len(hdrContentLen) && foldEqual(line[:len(hdrContentLen)], hdrContentLen) {
			contentLen = atoi(bytes.TrimSpace(line[len(hdrContentLen):]))
		} else if len(line) > len(hdrTransfer) && foldEqual(line[:len(hdrTransfer)], hdrTransfer) {
			chunked = bytes.Contains(line, []byte("chunked"))
		}
	}
	c.body = c.body[:0]
	if chunked {
		for {
			line, err := c.br.ReadSlice('\n')
			if err != nil {
				return 0, nil, err
			}
			size := hexAtoi(bytes.TrimSpace(line))
			if size < 0 {
				return 0, nil, fmt.Errorf("bad chunk size %q", line)
			}
			if err := c.read(size); err != nil {
				return 0, nil, err
			}
			if _, err := c.br.Discard(2); err != nil {
				return 0, nil, err
			}
			if size == 0 {
				return status, c.body, nil
			}
		}
	}
	if contentLen < 0 {
		return 0, nil, fmt.Errorf("response without content-length or chunking")
	}
	if err := c.read(contentLen); err != nil {
		return 0, nil, err
	}
	return status, c.body, nil
}

// read appends exactly n body bytes to c.body.
func (c *conn) read(n int) error {
	for n > 0 {
		if cap(c.body)-len(c.body) < n {
			grown := make([]byte, len(c.body), 2*cap(c.body)+n)
			copy(grown, c.body)
			c.body = grown
		}
		m, err := c.br.Read(c.body[len(c.body) : len(c.body)+n])
		c.body = c.body[:len(c.body)+m]
		n -= m
		if err != nil && n > 0 {
			return err
		}
	}
	return nil
}

func foldEqual(a, lower []byte) bool {
	for i := range a {
		c := a[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

func atoi(b []byte) int {
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

func hexAtoi(b []byte) int {
	n := 0
	for _, c := range b {
		switch {
		case c >= '0' && c <= '9':
			n = n<<4 | int(c-'0')
		case c >= 'a' && c <= 'f':
			n = n<<4 | int(c-'a'+10)
		case c >= 'A' && c <= 'F':
			n = n<<4 | int(c-'A'+10)
		default:
			return -1
		}
	}
	return n
}

// clientAllocsPerRequest drives the client against a null server — a raw
// TCP loop that answers every request with a fixed body and allocates
// nothing per request — and returns the process-wide mallocs per request.
// It proves the load generator's own cost is zero, so allocs_per_op
// belongs to the system.
func clientAllocsPerRequest(reqs [][]byte, n int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	done := make(chan error, 1)
	go func() { done <- nullServe(ln) }()
	c, err := dial(ln.Addr().String())
	if err != nil {
		ln.Close()
		<-done
		return 0, err
	}
	run := func(count int) error {
		for i := 0; i < count; i++ {
			st, _, err := c.do(reqs[i%len(reqs)])
			if err != nil {
				return err
			}
			if st != 200 {
				return fmt.Errorf("null server status %d", st)
			}
		}
		return nil
	}
	err = run(len(reqs)) // grow the body buffer
	var m0, m1 runtime.MemStats
	if err == nil {
		runtime.ReadMemStats(&m0)
		err = run(n)
		runtime.ReadMemStats(&m1)
	}
	c.close()
	ln.Close()
	if serr := <-done; err == nil {
		err = serr
	}
	if err != nil {
		return 0, err
	}
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}

// nullServe answers one connection's requests with a fixed 200 until the
// client hangs up.
func nullServe(ln net.Listener) error {
	c, err := ln.Accept()
	if err != nil {
		return err
	}
	defer c.Close()
	br := bufio.NewReaderSize(c, 64<<10)
	resp := []byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
	for {
		contentLen := 0
		for first := true; ; first = false {
			line, err := br.ReadSlice('\n')
			if err != nil {
				return nil // client closed
			}
			if len(line) <= 2 && !first {
				break
			}
			if len(line) > len(hdrContentLen) && foldEqual(line[:len(hdrContentLen)], hdrContentLen) {
				contentLen = atoi(bytes.TrimSpace(line[len(hdrContentLen):]))
			}
		}
		if _, err := br.Discard(contentLen); err != nil {
			return err
		}
		if _, err := c.Write(resp); err != nil {
			return err
		}
	}
}

// unsafeSlice views off-heap memory as an empty slice of n Ts.
func unsafeSlice[T any](mem []byte, n int) []T {
	var zero T
	if cap(mem) < n*int(unsafe.Sizeof(zero)) {
		panic("unsafeSlice: memory too small")
	}
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(mem[:1]))), n)[:0]
}
