"""One-dimensional packing substrate: bin packing under a deadline and shelves."""

from .bin_packing import BinPackingResult, first_fit
from .shelves import Shelf, ShelfPlacement

__all__ = ["BinPackingResult", "first_fit", "Shelf", "ShelfPlacement"]
