package main

import (
	"fmt"
	"math/rand"
)

// Reference models of the four guest servlets the workloads drive. Each is
// written from the servlet's specification (the guest program's loop
// structure and constants), not by calling into the VM, so a wrong answer
// from any engine, the marshaller or a forked clone shows up as a
// mismatch. Guest integers are 64-bit slots; every servlet masks its
// accumulator to 24 bits, so no product here can overflow either width.

const mask24 = 1<<24 - 1

// marshalModel is the int array the serving plane builds from a request
// body: element 0 holds the byte length, the rest pack the bytes four per
// element, little-endian.
func marshalModel(body []byte) []int64 {
	arr := make([]int64, 1+(len(body)+3)/4)
	arr[0] = int64(len(body))
	for i, b := range body {
		arr[1+i/4] |= int64(b) << uint(8*(i%4))
	}
	return arr
}

// servletModel is NetServlet.handle: fold the request into a checksum,
// then mix in one step per work unit.
func servletModel(body []byte, work int) int64 {
	var acc int64
	for _, v := range marshalModel(body) {
		acc = (acc + v) & mask24
	}
	for i := 0; i < work; i++ {
		acc = (acc*31 + int64(i)) & mask24
	}
	return acc
}

// hogModel is NetHog.handle: it retains 16 KiB and answers the length of
// the marshalled request array.
func hogModel(body []byte) int64 { return int64(len(marshalModel(body))) }

// warmTable is the 4096-entry table NetWarm's <clinit> builds.
func warmTable() []int64 {
	t := make([]int64, 4096)
	for i := range t {
		v := int64(i)
		for j := 0; j < 64; j++ {
			v = (v*31 + int64(j)) & mask24
		}
		t[i] = v
	}
	return t
}

// warmModel is NetWarm.handle over a table built by warmTable.
func warmModel(table []int64, body []byte, work int) int64 {
	var acc int64
	for _, v := range marshalModel(body) {
		acc = (acc + table[v&4095]) & mask24
	}
	for i := 0; i < work; i++ {
		acc = (acc + table[i&4095]) & mask24
	}
	return acc
}

// wideModel is NetWide.handle: the request length plus the work units,
// threaded through 96 stages of 20 multiply-add-mask rounds each.
func wideModel(body []byte, work int) int64 {
	acc := int64(len(marshalModel(body)) + work)
	for s := 0; s < 96; s++ {
		for r := 0; r < 20; r++ {
			acc = (acc*int64(31+2*(s%7)) + int64(1+(s+r)%13)) & mask24
		}
	}
	return acc
}

// reply is the body the serving plane answers a 200 with.
func reply(tenant string, result int64) string {
	return fmt.Sprintf("%s result=%d\n", tenant, result)
}

// bodies draws n request bodies of size bytes from rng.
func bodies(rng *rand.Rand, n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
		rng.Read(out[i])
	}
	return out
}
