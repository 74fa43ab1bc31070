from .cli import console_main

# console_main freezes the heap after the command, so exit skips the GC scan.
raise SystemExit(console_main())
