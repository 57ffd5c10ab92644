import os
import xml.etree.ElementTree as ET

from thrusterbiped.plots import emit_run_plots

SVG = "{http://www.w3.org/2000/svg}svg"


def test_run_plots_are_well_formed_svg(tmp_path, one_step_log):
    paths = emit_run_plots(one_step_log, str(tmp_path))
    assert [os.path.basename(p) for p in paths] == [
        "phase_portrait.svg", "contact_ratio.svg", "thrust.svg"]
    for path in paths:
        assert os.path.dirname(path) == str(tmp_path)
        assert ET.parse(path).getroot().tag == SVG, path
