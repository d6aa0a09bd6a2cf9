"""Uncertain-point refinement for range-image LiDAR semantic segmentation.

The pipeline projects a point cloud to a range image, takes per-pixel class
probabilities from a pluggable coarse source, repairs labels with a windowed
KNN vote, localizes uncertain points (low-margin pixels and far background
points) and reclassifies them with a trainable self-attention refiner.
Names are imported from their modules (``from rangerefine import pipeline``).
"""

__version__ = "0.1.0"
