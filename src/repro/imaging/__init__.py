"""Imaging substrate: containers, synthetic scenes, filters, density estimation.

The paper's pipeline is: acquire an image, filter it to emphasise the
colour of interest, then fit a circle configuration to the *filtered*
image by RJMCMC.  This package provides every imaging piece of that
pipeline, including a parametric synthetic-scene generator that stands in
for the stained-nuclei micrographs and latex-bead photographs used in the
paper.
"""

from repro.imaging.image import Image
from repro.imaging.synthetic import (
    SceneSpec,
    Scene,
    generate_scene,
    generate_bead_scene,
    render_scene,
)
from repro.imaging.filters import threshold_filter, gaussian_blur, emphasise
from repro.imaging.noise import add_gaussian_noise, add_salt_pepper
from repro.imaging.density import (
    estimate_count,
    estimate_count_in_rect,
    estimate_count_by_area,
)
from repro.imaging.pgm import write_pgm, read_pgm
from repro.imaging.integral import IntegralImage

__all__ = [
    "Image",
    "SceneSpec",
    "Scene",
    "generate_scene",
    "generate_bead_scene",
    "render_scene",
    "threshold_filter",
    "gaussian_blur",
    "emphasise",
    "add_gaussian_noise",
    "add_salt_pepper",
    "estimate_count",
    "estimate_count_in_rect",
    "estimate_count_by_area",
    "write_pgm",
    "read_pgm",
    "IntegralImage",
]
