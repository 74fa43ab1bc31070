from .cli import console_main

# console_main flushes the output and ends the process with os._exit, so exit
# runs the atexit callbacks but skips module teardown.
console_main()
