"""Reference implementations the engine is tested against."""
