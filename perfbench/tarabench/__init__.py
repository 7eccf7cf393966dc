"""The repository benchmark: served TARA workloads measured end to end."""
