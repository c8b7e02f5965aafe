"""SVG pyramid rendering."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from wavescreen.plotting import render_pyramid_svg


def _spectra():
    bf = [np.array([5.0]), np.array([0.4, 2.0])]
    locs = [np.array([0]), np.array([0, 1])]
    return bf, locs


class TestRenderPyramid:
    def test_deterministic(self):
        bf, locs = _spectra()
        a = render_pyramid_svg(bf, locs, 1000, 2000, "t")
        b = render_pyramid_svg(bf, locs, 1000, 2000, "t")
        assert a == b

    def test_structure(self):
        bf, locs = _spectra()
        svg = render_pyramid_svg(bf, locs, 1000, 2000, "title")
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<circle ") == 3
        # highlights only for BF > 1 (two coefficients qualify)
        assert svg.count('fill="#fde68a"') == 2
        assert ">1000<" in svg and ">2000<" in svg and ">title<" in svg
        assert ">s=0<" in svg and ">s=1<" in svg

    def test_title_is_escaped_text(self):
        bf, locs = _spectra()
        title = "chr1 <1 Mb> & BF"
        root = ET.fromstring(render_pyramid_svg(bf, locs, 1000, 2000, title))
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert texts[0] == title

    def test_larger_bf_draws_larger_darker_point(self):
        svg = render_pyramid_svg(
            [np.array([1.0, 100.0])], [np.array([0, 1])], 0, 10
        )
        import re

        circles = re.findall(r'<circle [^/]*r="([\d.]+)" fill="rgb\((\d+)', svg)
        radii = [float(r) for r, _ in circles]
        greys = [int(g) for _, g in circles]
        assert radii[1] > radii[0]
        assert greys[1] < greys[0]

    def test_empty_map_rejected(self):
        with pytest.raises(ValueError, match="^empty Bayes-factor map$"):
            render_pyramid_svg([np.empty(0)], [np.empty(0, dtype=int)], 0, 1)

