module verlog

go 1.23
