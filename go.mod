module verlog

go 1.24
