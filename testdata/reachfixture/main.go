// Command reachfixture is the input of the reachability gate's own test. Its
// main reaches Thing, a generic type with six methods; the gate must flag
// exactly Dead and Callee.
package main

import "fmt"

// Thing is reached from main through an instantiation.
type Thing[T any] struct{ v T }

// Dead is called by nothing (i).
func (t *Thing[T]) Dead() T { return t.Callee() }

// Callee is called only from Dead (vi).
func (t *Thing[T]) Callee() T { return t.v }

// Local is called only through the local interface (ii).
func (t *Thing[T]) Local() int { return 1 }

// String is called only by fmt (iii).
func (t *Thing[T]) String() string { return "thing" }

// Value is used only as a method value (iv).
func (t *Thing[T]) Value() int { return 2 }

// Get is called directly through the instantiation Thing[int] (v).
func (t *Thing[T]) Get() T { return t.v }

type local interface{ Local() int }

func main() {
	t := &Thing[int]{v: 3}
	var l local = t
	f := t.Value
	fmt.Println(t, l.Local(), f(), t.Get())
}
