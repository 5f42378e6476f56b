package main

// package syscall predates sendmmsg on this platform and has no constant
// for it.
const sysSendmmsg = 307
