package emu

// RunSink exposes the sequential emulator's streaming entry point to the
// external tests, which record what it emits through a trace.Sink.
var RunSink = runSink
