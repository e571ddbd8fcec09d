"""`python -m centerstring` runs the command line interface."""
from .io_cli import main

if __name__ == "__main__":
    raise SystemExit(main())
