"""A seeded, closed-loop benchmark of the verified fork/join stack (see README.md)."""
