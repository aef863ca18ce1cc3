package fixture

import (
	"errors"
	"fmt"
	"time"
)

type payload struct {
	id int
}

type sink interface {
	accept(v any)
}

type ticker struct{ n int }

func (t ticker) tick() {}

//invalidb:hotpath
func hotAllocs(s sink, m map[string]int, b []byte, name string, n int) int {
	msg := fmt.Sprintf("id") // want `fmt\.Sprintf allocates in hot path`
	_ = msg
	err := errors.New("boom") // want `errors\.New allocates in hot path`
	_ = err
	joined := name + "!" // want `string concatenation allocates in hot path`
	_ = joined
	scratch := make([]byte, 16) // want `make allocates in hot path`
	_ = scratch
	q := new(payload) // want `new allocates in hot path`
	_ = q
	p := &payload{id: n} // want `&composite literal escapes to the heap in hot path`
	_ = p
	ints := []int{1, 2, 3} // want `slice literal allocates in hot path`
	_ = ints
	idx := map[string]int{} // want `map literal allocates in hot path`
	_ = idx
	s2 := string(b) // want `string/\[\]byte conversion allocates in hot path`
	_ = s2
	fn := func() {} // want `function literal allocates a closure in hot path`
	_ = fn
	s.accept(payload{id: n}) // want `boxes fixture/hotpathalloc\.payload into interface`
	s.accept(7)              // constants box into read-only statics: fine
	return m[string(b)]      // compiler-optimized map index: fine
}

//invalidb:hotpath
func hotPollTimeout(in <-chan int) int {
	select {
	case v := <-in:
		return v
	case <-time.After(time.Millisecond): // want `time\.After allocates in hot path`
		return 0
	}
}

//invalidb:hotpath
func hotMethodValue(tk ticker) func() {
	f := tk.tick // want `method value tick allocates a closure in hot path`
	return f
}

//invalidb:hotpath
func hotClean(b []byte, name string, m map[string]int) int {
	v := payload{id: len(name)} // value literal stays on the stack
	b = append(b, name...)      // append into scratch is part of the design
	return v.id + m[string(b)] + len(b)
}

//invalidb:hotpath
func hotAllowed(b []byte) string {
	//invalidb:allow hotpathalloc fixture exercises the suppression path
	return string(b)
}

func coldAllocs(name string) string {
	return fmt.Sprintf("cold " + name) // unannotated: not checked
}
