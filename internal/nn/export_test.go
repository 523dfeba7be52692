package nn

// PoisonArenas makes every arena the executor allocates from now on
// start filled with v instead of zeros, so a kernel that reads a slot
// nobody wrote this run yields an answer no reference matches. Call it
// on a fresh executor: arenas already pooled keep the previous run's
// activations, which is the other poison the tests rely on.
func (e *Executor[T, N, S]) PoisonArenas(v T) {
	fresh := e.pool.New
	e.pool.New = func() any {
		s := fresh().(*runState[T, S])
		for i := range s.arena {
			s.arena[i] = v
		}
		return s
	}
}
