package main

const sysSendmmsg = 269
