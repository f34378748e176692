// Empty on purpose: an assembly file in the package lets counter.go
// declare the bodyless runtime.procPin / runtime.procUnpin linknames.
